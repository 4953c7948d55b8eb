import hashlib
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from kinetic_em._rng import (
    ROLE_STRONG,
    ROLE_WEAK_LEVEL,
    make_generator,
    normal_words,
    stream_key,
)
from kinetic_em.errors import DomainError


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


_KEYS = {
    "zero": (0, 0),
    "max": (2**64 - 1, 2**64 - 1),
    "weak-level": (20260814, stream_key(ROLE_WEAK_LEVEL, 12345, level=3)),
}

# sha256 of the float64 bytes, taken from a sampler that drew raw Philox
# words and mapped them to normals in freshly allocated arrays.
_GOLDEN = {
    ("zero", 1): "44706407d64754709e12eb8127539d92f0ac7dd4a6c68e3d1217a907b4a95e44",
    ("zero", 7): "52def6ce6ec1bcac874ba070b2b460517e9b85798956df4ea92572d533b9d5f9",
    ("zero", 2051): "61aee05f0ba986e03cad757adb82ad21243e8710fdb7fe5f6f113e4ba6a69fde",
    ("max", 1): "2bfb6e19610f45e2f4024edc2225829dce47205f6b045dd0a3258e1110cebc08",
    ("max", 7): "bce9629db6cc88a14e0a9d726439214e5eb7a1ad04b0ab164d8a9bcdf795dd05",
    ("max", 2051): "ac3a94a399c92add3b95cd3f8965a347327b43f98958e77a7efb866ed2a0cc74",
    ("weak-level", 1): "2089c083d2508fde0ae3c813aa0734cfab45a9e9ee3472097c326bc965f41390",
    ("weak-level", 7): "0bde97094784c436f2f384e5e2eb8a6500fa8ea67e01f337fd0ccec663ee6677",
    ("weak-level", 2051): "46f593e20e79e8f396350e9fdadf468565b7ef14cf15783cd1575423147d1373",
}


@pytest.mark.parametrize("key, count", sorted(_GOLDEN))
def test_normal_words_golden_digests(key, count):
    seed, sid = _KEYS[key]
    drawn = normal_words(seed, sid, count)
    assert hashlib.sha256(drawn.astype("<f8").tobytes()).hexdigest() == _GOLDEN[key, count]
    row = np.full(count, np.nan)
    assert normal_words(seed, sid, count, out=row) is row
    assert row.tobytes() == drawn.tobytes()


@pytest.mark.parametrize("out", [
    pytest.param(np.empty(6), id="short"),
    pytest.param(np.empty(8), id="long"),
    pytest.param(np.empty(14)[::2], id="strided"),
    pytest.param(np.empty((7, 2))[:, 0], id="column"),
    pytest.param(np.empty(7, dtype=np.float32), id="float32"),
    pytest.param(np.empty((1, 7)), id="2-d"),
])
def test_normal_words_rejects_bad_out(out):
    with pytest.raises(DomainError, match="out"):
        normal_words(1, 2, 7, out=out)
