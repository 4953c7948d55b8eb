"""Exact joint sampling of Brownian increments and their running time integrals.

A path at resolution n on [0, T] stores, per step of size h = 1/n and per
dimension, the pair (dW, dI): the Brownian increment and the integral of
(W_s - W_{step start}) over the step.  Per dimension the pair is centered
Gaussian with covariance [[h, h^2/2], [h^2/2, h^3/3]], realized exactly from
two unit normals (a, b) by the kernel pair map ``kernel.kernel_pair(h, a, b)``.
Fine paths aggregate to coarse ones describing the same trajectory, which is
what couples integrators across resolutions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import ROLE_INCREMENT_CHECK, normal_words, stream_key
from .errors import ConfigError, DomainError, check_int, check_real
from .kernel import KernelCovariance, kernel_pair

__all__ = [
    "GridSpec",
    "AugmentedPath",
    "sample_path",
    "prefix_integrals",
    "coarsen",
    "increment_identity_report",
    "IncrementIdentityReport",
]


def _check_horizon(name: str, horizon, n: int) -> float:
    """A horizon that is a whole number, at least one, of steps 1/n, as a float.

    Otherwise ConfigError naming the key the horizon came from and the n.
    """
    horizon = check_real(name, horizon, 0, strict=True)
    steps = n * horizon
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
        raise ConfigError(
            f"{name} must be a whole number of steps at n={n}, got n * {name} = {steps}"
        )
    return horizon


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n steps per unit time on [0, horizon], dimension d.

    Grid points are t_k = k * h with h = 1/n; the total step count
    n * horizon must be a whole number.
    """

    n: int
    horizon: float = 1.0
    d: int = 1

    def __post_init__(self):
        n = check_int("n", self.n, 1)
        object.__setattr__(self, "horizon", _check_horizon("horizon", self.horizon, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", check_int("d", self.d, 1))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def num_steps(self) -> int:
        return int(round(self.n * self.horizon))

    def times(self) -> np.ndarray:
        """Grid times t_k = k * h, k = 0..num_steps."""
        return np.arange(self.num_steps + 1) * self.h


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AugmentedPath:
    """Sampled increments (dW, dI) on a grid, plus the stream that produced them.

    Immutable after creation; a coarsened path keeps the (seed, stream_id) of
    the fine path it derives from.
    """

    grid: GridSpec
    dW: np.ndarray
    dI: np.ndarray
    seed: int
    stream_id: int

    def __post_init__(self):
        shape = (self.grid.num_steps, self.grid.d)
        dw = np.asarray(self.dW, dtype=np.float64)
        di = np.asarray(self.dI, dtype=np.float64)
        if dw.shape != shape or di.shape != shape:
            raise ConfigError(
                f"increment arrays must have shape {shape}, got {dw.shape} and {di.shape}"
            )
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(di))):
            raise DomainError("increments contain non-finite values")
        object.__setattr__(self, "dW", _freeze(dw))
        object.__setattr__(self, "dI", _freeze(di))


def sample_path(grid: GridSpec, seed: int = 0, stream_id: int = 0) -> AugmentedPath:
    """Sample an augmented path; identical (seed, stream_id) give identical output.

    Per step k and dimension i the two unit normals consume the Philox words
    at counter addresses 2*(k*d + i) and 2*(k*d + i) + 1 of the stream, so
    every draw is addressable by (seed, stream_id, step, dim).
    """
    k, d = grid.num_steps, grid.d
    xi = normal_words(seed, stream_id, 2 * k * d).reshape(k, d, 2)
    dw, di = kernel_pair(grid.h, xi[..., 0], xi[..., 1])
    return AugmentedPath(grid=grid, dW=dw, dI=di, seed=seed, stream_id=stream_id)


# Words per tile of the block sampler: each tile holds whole streams, so a
# tile is at most this many words or a single stream.  About 256 KB of
# normals, small enough that one stream's row and the transposed write stay
# in cache, large enough that the per-tile overhead is amortised.
_TILE_WORDS = 1 << 15


def _normal_tiles(seed: int, stream_ids, steps: int, d: int):
    """Yield (lo, hi, xi): unit normals of streams lo..hi-1 shaped (steps, hi - lo, d, 2).

    Stream j draws its own 2 * steps * d words, at the same counter addresses
    as sample_path, with one normal_words call that fills its row of the tile
    in place; `xi` is a transposed view of the tile's stream-major rows, valid
    until the next tile is drawn.
    """
    words = 2 * steps * d
    m = len(stream_ids)
    rows = max(1, _TILE_WORDS // max(words, 1))
    tile = np.empty((min(rows, m), words))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        for r in range(hi - lo):
            normal_words(seed, int(stream_ids[lo + r]), words, out=tile[r])
        yield lo, hi, tile[: hi - lo].reshape(hi - lo, steps, d, 2).transpose(1, 0, 2, 3)


def sample_increment_block(
    grid: GridSpec, seed: int, stream_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample increments for many streams at once, C-ordered shapes (steps, len(streams), d).

    Column j is bit for bit the (dW, dI) of sample_path(grid, seed,
    stream_ids[j]); the block layout just suits vectorized stepping.  The
    streams are drawn tile by tile (see _normal_tiles) with one kernel pair
    map per tile, so the output is a pure function of (grid, seed,
    stream_ids) whatever the caller's threading.
    """
    k, d = grid.num_steps, grid.d
    m = len(stream_ids)
    dw = np.empty((k, m, d))
    di = np.empty((k, m, d))
    for lo, hi, xi in _normal_tiles(seed, stream_ids, k, d):
        dw[:, lo:hi], di[:, lo:hi] = kernel_pair(grid.h, xi[..., 0], xi[..., 1])
    return dw, di


def worker_count(threads: int) -> int:
    """Workers that `threads` requested threads run on: at most the usable CPUs.

    More threads than CPUs only contend for them; chunks are keyed by stream
    index, so the count cannot change an output bit.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


def run_streams(grid: GridSpec, seed: int, role: int, tag: int, count: int,
                chunk: int, threads: int, work) -> np.ndarray:
    """Rows work(lo, hi, dw, di) returns for streams (role, tag, s), s < count, chunk by chunk.

    Each chunk's increments are drawn once on `grid` and handed to `work`,
    which returns the chunk's hi - lo rows and writes nothing shared.  The
    rows land at lo..hi-1 of one array shaped from the first chunk's rows,
    so the chunks can run in any order: on a pool of worker_count(threads)
    workers when threads > 1, even if that pool has a single worker.
    """
    def run(lo: int):
        hi = min(lo + chunk, count)
        streams = [stream_key(role, s, level=tag) for s in range(lo, hi)]
        return lo, work(lo, hi, *sample_increment_block(grid, seed, streams))

    def collect(chunks) -> np.ndarray:
        out = None
        for lo, rows in chunks:
            if out is None:
                out = np.empty((count,) + rows.shape[1:], rows.dtype)
            out[lo:lo + len(rows)] = rows
        return out

    starts = range(0, count, chunk)
    if threads <= 1 or len(starts) <= 1:
        return collect(map(run, starts))
    with ThreadPoolExecutor(max_workers=worker_count(threads)) as pool:
        return collect(pool.map(run, starts))


def prefix_integrals(dw: np.ndarray, di: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(W, I) at grid points, I_t = int_0^t W_s ds, from increments with steps on axis 0.

    The recursion W_{k+1} = W_k + dW_k, I_{k+1} = I_k + h W_k + dI_k is an
    exact identity, not a discretization.  Plain cumulative sums keep it
    within 1e-12 of exact rational arithmetic on 2^14-step grids (errors of a
    few 1e-15 are typical), so no compensated summation is needed.

    Increments shaped (steps, ...) give (W, I) shaped (steps + 1, ...),
    starting at (0, 0).
    """
    shape = (dw.shape[0] + 1,) + dw.shape[1:]
    w = np.zeros(shape)
    iarr = np.zeros(shape)
    np.cumsum(dw, axis=0, out=w[1:])
    np.cumsum(di + h * w[:-1], axis=0, out=iarr[1:])
    return w, iarr


def coarsen(path: AugmentedPath, factor: int) -> AugmentedPath:
    """Aggregate a fine path to resolution n/factor describing the same trajectory.

    Per coarse step the Brownian increment is the block sum of fine ones, and
    the integral increment also collects the drift of each fine substep start
    relative to the coarse step start:

        dI_coarse = sum_j [ dI_j + h_fine * (W at substep j - W at block start) ].

    `factor` must divide both the step count and n.
    """
    factor = check_int("factor", factor, 1)
    if factor == 1:
        return path
    k, d = path.grid.num_steps, path.grid.d
    if k % factor or path.grid.n % factor:
        raise ConfigError(
            f"factor {factor} must divide the step count {k} and the resolution {path.grid.n}"
        )
    dw_c, di_c = coarsen_block(path.dW, path.dI, factor, path.grid.h)
    grid_c = GridSpec(n=path.grid.n // factor, horizon=path.grid.horizon, d=d)
    return AugmentedPath(grid=grid_c, dW=dw_c, dI=di_c, seed=path.seed, stream_id=path.stream_id)


def coarsen_block(dw: np.ndarray, di: np.ndarray, factor: int,
                  h_fine: float) -> tuple[np.ndarray, np.ndarray]:
    """coarsen() on raw increment blocks of shape (steps, M, d).

    The sums over each coarse step's substeps are sequential, substep 0
    first, whatever the shape, so a single path and a column of a block
    coarsen to the same bits.  The loop holds three coarse-sized arrays (the
    running W, the dI accumulator and one scratch array) and no temporary of
    the fine block's size.
    """
    if factor == 1:
        return dw, di
    k = dw.shape[0]
    if k % factor:
        raise ConfigError(f"factor {factor} must divide the step count {k}")
    kc = k // factor
    dw_r = dw.reshape(kc, factor, *dw.shape[1:])
    di_r = di.reshape(kc, factor, *di.shape[1:])
    # w is W at the start of substep j relative to the coarse step start
    w = dw_r[:, 0].copy()
    acc = di_r[:, 0] + 0.0
    scratch = np.empty_like(w)
    for j in range(1, factor):
        np.multiply(w, h_fine, out=scratch)
        np.add(di_r[:, j], scratch, out=scratch)
        np.add(acc, scratch, out=acc)
        np.add(w, dw_r[:, j], out=w)
    return w, acc


@dataclass(frozen=True)
class IncrementIdentityReport:
    """Empirical check that (W, I) increments renew under the transport shift.

    D = (W_t - W_s, I_t - I_s - (t - s) W_s) should be distributed as the
    kernel pair at time t - s and be uncorrelated with (W_s, I_s).  All
    matrices are per-dimension 2x2 blocks in (increment, integral) order,
    stacked along the first axis; `*_se` hold matching standard errors.
    """

    s: float
    t: float
    samples: int
    cov: np.ndarray
    cov_se: np.ndarray
    cov_expected: np.ndarray
    cross: np.ndarray
    cross_se: np.ndarray

    def max_cov_sigmas(self) -> float:
        return float(np.max(np.abs(self.cov - self.cov_expected) / self.cov_se))

    def max_cross_sigmas(self) -> float:
        # at s = 0, (W_s, I_s) is identically 0: a zero cross with a zero
        # standard error is 0 sigmas, not 0/0
        sigmas = np.divide(np.abs(self.cross), self.cross_se,
                           out=np.where(self.cross == 0.0, 0.0, np.inf),
                           where=self.cross_se > 0.0)
        return float(np.max(sigmas))


# Streams sampled per block in increment_identity_report.
_IDENTITY_CHUNK = 8192


def increment_identity_report(
    grid: GridSpec,
    s_index: int,
    t_index: int,
    samples: int,
    seed: int = 0,
) -> IncrementIdentityReport:
    """Monte Carlo report for the renewal identity between grid indices s and t."""
    samples = check_int("samples", samples, 100)
    s_index = check_int("s_index", s_index, 0)
    t_index = check_int("t_index", t_index, 0)
    k = grid.num_steps
    if not s_index < t_index <= k:
        raise DomainError(
            f"indices must satisfy 0 <= s < t <= {k}, got s={s_index}, t={t_index}"
        )
    h = grid.h
    dt = (t_index - s_index) * h
    d = grid.d
    # The first t_index steps of the grid; per sample and dimension collect
    # (D_W, D_I, W_s, I_s).
    head = GridSpec(n=grid.n, horizon=t_index / grid.n, d=d)

    def work(lo: int, hi: int, dw: np.ndarray, di: np.ndarray) -> np.ndarray:
        w, iarr = prefix_integrals(dw, di, h)
        ws, is_ = w[s_index], iarr[s_index]
        return np.stack((w[t_index] - ws, iarr[t_index] - (is_ + dt * ws), ws, is_), axis=-1)

    feats = run_streams(head, seed, ROLE_INCREMENT_CHECK, 0, samples, _IDENTITY_CHUNK, 1, work)
    # per dimension, (D_W, D_I) times each of the four centered features,
    # stream-major so that each mean runs over one contiguous row
    centered = (feats - feats.mean(axis=0)).transpose(1, 2, 0).copy()
    prod = centered[:, :2, None, :] * centered[:, None, :, :]
    mean = prod.mean(axis=-1)
    se = prod.std(axis=-1, ddof=1) / math.sqrt(samples)
    expected = np.broadcast_to(KernelCovariance(dt).matrix, (d, 2, 2)).copy()
    return IncrementIdentityReport(
        s=s_index * h,
        t=t_index * h,
        samples=samples,
        cov=mean[:, :, :2],
        cov_se=se[:, :, :2],
        cov_expected=expected,
        cross=mean[:, :, 2:],
        cross_se=se[:, :, 2:],
    )
