"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by the
pair ``(master seed, stream id)``.  Philox is counter-based: the word at a
given counter address is a pure function of the key, so identical keys
reproduce identical draws no matter how work is scheduled across threads.

Stream ids partition into roles so that independent parts of an experiment
(coupled paths, weak-rate reference, bootstrap resampling, ...) can never
collide: bits 48..63 carry the role, bits 40..47 an optional level tag, and
the low 40 bits the sample index.

Standard normals are produced by inverse CDF from exactly one 64-bit word
each: the top 52 bits of the word select the cell midpoint ``(k + 1/2) /
2**52`` of a uniform partition of (0, 1), which keeps the map symmetric
around 1/2 and bounded away from 0 and 1 (ndtri would return +-inf there).
One word per normal means the word for step ``k``, dimension ``i``,
component ``j`` of a sampled path sits at the fixed counter address
``2*(k*d + i) + j``.

`normal_words` draws through one Philox-backed Generator per thread and
re-keys it for every stream by assigning its whole state: key ``[seed,
stream_id]``, counter zero and an empty output buffer.  That is exactly the
state of a new ``Philox(key=...)``, without the per-construction
``SeedSequence`` seeded from OS entropy.  The state is given as Python ints,
which the setter reads faster than small arrays.  The draw then works in
place in one float64 buffer, the caller's ``out`` row or a fresh one: a
Generator double is ``u = (w >> 11) * 2**-53``, so ``floor(u * 2**52)`` is
exactly the cell index ``w >> 12`` and no double rounding sits between the
word and the normal.  NumPy calls release the GIL only on arrays above 500
elements, so the fewer calls and temporaries per stream, the less two
sampling threads hand it back and forth.  `make_generator` builds a full
``Generator`` on the same key; its only caller is the bootstrap resampling
of strong-error runs.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, DomainError

# Stream roles (bits 48..63 of the stream id).
ROLE_SIMULATE = 1
ROLE_STRONG = 2
ROLE_OU_RESIDUAL = 3
ROLE_WEAK_REF = 4
ROLE_WEAK_LEVEL = 5
ROLE_DEMO = 6
ROLE_TV = 7
# 8 is retired; the other roles keep their numbers so existing streams stay put.
ROLE_BOOTSTRAP = 9
ROLE_INCREMENT_CHECK = 10

_INDEX_BITS = 40
_LEVEL_BITS = 8


def stream_key(role: int, index: int, level: int = 0) -> int:
    """Pack (role, level, index) into a 64-bit stream id.

    Parameters
    ----------
    role : int
        One of the ``ROLE_*`` constants (1..65535).
    index : int
        Sample index within the role, below 2**40.
    level : int, optional
        Level tag (for example log2 of the grid resolution), below 2**8.
    """
    if not 0 <= index < (1 << _INDEX_BITS):
        raise ConfigError(f"stream index {index} outside [0, 2**{_INDEX_BITS})")
    if not 0 <= level < (1 << _LEVEL_BITS):
        raise ConfigError(f"stream level tag {level} outside [0, 256)")
    if not 0 < role < (1 << 16):
        raise ConfigError(f"stream role {role} outside (0, 65536)")
    return (role << (_INDEX_BITS + _LEVEL_BITS)) | (level << _INDEX_BITS) | index


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream_id), counter at zero."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_local = threading.local()


def normal_words(seed: int, stream_id: int, count: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Draw `count` standard normals, one 64-bit Philox word per value.

    They are written into `out`, a C-contiguous float64 array of shape
    (count,), when given, else into a new array; either is returned.
    """
    if out is None:
        out = np.empty(count)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (count,) and out.flags.c_contiguous and out.flags.writeable):
        raise DomainError(f"out must be a writable C-contiguous float64 array of shape "
                          f"({count},), got {type(out).__name__} of shape {np.shape(out)}")
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, stream_id]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen.random(out=out)
    # Cell midpoints (k + 1/2) / 2**52, k = w >> 12, are exact in binary64 and symmetric.
    out *= 2.0**52
    np.floor(out, out=out)
    out += 0.5
    out *= 2.0**-52
    return ndtri(out, out=out)
