import sys
import threading

import numpy as np
from scipy.special import ndtri

from kinetic_em._rng import ROLE_STRONG, make_generator, normal_words, stream_key


def _reference_normals(seed, sid, count):
    """The inverse-CDF map written through a fresh Generator's doubles."""
    u = make_generator(seed, sid).random(count)
    return ndtri((np.floor(u * 2.0**52) + 0.5) * 2.0**-52)


def test_normal_words_matches_fresh_generator_after_another_stream():
    seed = 20260814
    a, b = stream_key(ROLE_STRONG, 3), stream_key(ROLE_STRONG, 4)
    # An odd draw leaves half a Philox block unread; the next stream must not
    # start from it.
    first = normal_words(seed, a, 7)
    second = normal_words(seed, b, 5)
    assert np.array_equal(first, _reference_normals(seed, a, 7))
    assert np.array_equal(second, _reference_normals(seed, b, 5))
    assert np.array_equal(normal_words(seed, a, 7), first)


def test_normal_words_same_bits_from_concurrent_threads():
    seed = 11
    ids = [stream_key(ROLE_STRONG, i) for i in range(64)]
    counts = [1 + 37 * (i % 5) for i in range(len(ids))]
    expected = [normal_words(seed, sid, c) for sid, c in zip(ids, counts)]
    threads = 4
    draws = [0] * threads
    mismatches = [0] * threads
    start = threading.Barrier(threads)

    def draw(t):
        start.wait()
        for _ in range(5):
            for sid, c, e in zip(ids, counts, expected):
                mismatches[t] += not np.array_equal(normal_words(seed, sid, c), e)
                draws[t] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert draws == [5 * len(ids)] * threads
    assert mismatches == [0] * threads
