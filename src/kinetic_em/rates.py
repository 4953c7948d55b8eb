"""Strong and weak error estimation, rate regression, and scheme diagnostics.

Monte Carlo runs are sample-parallel: every sample owns a counter-based
stream keyed by its global index.  `strong_error`, `weak_error` and
`tv_proxy` run on the chunk loop `paths.run_streams`, which samples a
fixed-size chunk of streams at a time, hands it to the experiment's work
function, on a thread pool when more than one thread is asked for, and puts
the per-sample rows the work function returns in stream order; all
reductions happen single-threaded afterwards.  Reports are therefore bitwise
reproducible for a given (config, seed) whatever the thread count; the chunk
sizes are module constants, and the results do not depend on them either.
The reports are numbers; `cli` writes them as text.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rng import (
    ROLE_BOOTSTRAP,
    ROLE_DEMO,
    ROLE_OU_RESIDUAL,
    ROLE_STRONG,
    ROLE_TV,
    ROLE_WEAK_LEVEL,
    ROLE_WEAK_REF,
    make_generator,
    normal_words,
    stream_key,
)
from .drifts import DriftSpec, MollifiedDrift, mollify
from .errors import ConfigError, ConfigWarning, DomainError, KineticEmError, check_int, check_real
from .integrator import exact_linear_block, resolve_initial, step_block
from .kernel import kernel_pair
from .paths import (
    GridSpec,
    _check_horizon,
    _normal_tiles,
    coarsen_block,
    prefix_integrals,
    run_streams,
)

# Below this, a level's error estimate counts as an exact reproduction
# rather than a converging quantity; no slope is fitted through it.
EXACT_TOL = 1e-11

_LOG2E_LN = math.log(2.0)

# Bootstrap indices drawn per batch in strong_error (512 KB of int64).
_BOOTSTRAP_INDICES = 1 << 16


# Streams sampled and stepped per chunk; any size gives the same bits.
_STRONG_CHUNK = 256
_WEAK_CHUNK = 512
_TV_CHUNK = 4096


def _check_finite(drift: DriftSpec, n: int, lo: int, x: np.ndarray, v: np.ndarray) -> None:
    """Raise DomainError if a chunk's final states, streams lo.., are not all finite."""
    finite = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
    if not finite.all():
        raise DomainError(
            f"drift {drift.drift_id} diverged at level n={n}: stream index "
            f"{lo + int(finite.argmin())} ends in a non-finite state"
        )


def _scheme(drift: DriftSpec, md: MollifiedDrift, grid: GridSpec, quad_order: int,
            x0: np.ndarray, v0: np.ndarray, lo: int, dw: np.ndarray, di: np.ndarray,
            stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Step a chunk's streams lo.. from (x0, v0) and check that they end finite.

    Returns the states recorded after every `stride`-th step.
    """
    shape = dw.shape[1:]
    x = np.broadcast_to(x0, shape).copy()
    v = np.broadcast_to(v0, shape).copy()
    recorded = step_block(md, grid.h, dw, di, x, v, quad_order, record_stride=stride)
    _check_finite(drift, grid.n, lo, x, v)
    return recorded


def _check_levels(levels) -> tuple[int, ...]:
    out = tuple(check_int("levels", n, 1) for n in levels)
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"levels must be nonempty and strictly increasing, got {out}")
    return out


def _check_ref_levels(levels, n_ref) -> tuple[tuple[int, ...], int]:
    """The checked levels and n_ref of a rate run; n_ref must be a multiple of every level."""
    levels, n_ref = _check_levels(levels), check_int("n_ref", n_ref, 1)
    for n in levels:
        if n_ref % n:
            raise ConfigError(f"n_ref must be a multiple of every level, got n_ref={n_ref} "
                              f"and level {n}")
    return levels, n_ref


@dataclass(frozen=True)
class RateReport:
    """Error estimates over resolution levels with a fitted decay exponent.

    `slope` is the positive decay rate (error ~ n**-slope) and always comes
    with `slope_se`; both are NaN when no fit was possible and meaningless
    when `exact` is set (the errors are reproductions at floating-point
    scale, not a converging sequence).
    """

    levels: tuple[int, ...]
    errors: tuple[float, ...]
    errors_se: tuple[float, ...]
    slope: float
    slope_se: float
    exact: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        levels = _check_levels(self.levels)
        errors = tuple(float(e) for e in self.errors)
        ses = tuple(float(s) for s in self.errors_se)
        if len(errors) != len(levels) or len(ses) != len(levels):
            raise ConfigError("levels, errors and errors_se must have equal length")
        if not self.exact and any(e <= 0.0 for e in errors):
            raise DomainError(f"non-exact error estimates must be positive, got {errors}")
        if any(s < 0.0 for s in ses):
            raise DomainError(f"standard errors must be nonnegative, got {ses}")
        if math.isnan(self.slope) != math.isnan(self.slope_se):
            raise ConfigError("slope and slope_se must be reported together")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "errors_se", ses)
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def error_pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.errors, self.errors_se))

    @property
    def slope_label(self) -> str:
        if self.exact:
            return "exact"
        if math.isnan(self.slope):
            return "unfitted"
        return f"{self.slope:.4f} +/- {self.slope_se:.4f}"


def fit_rate(levels, errors, errors_se=None) -> tuple[float, float]:
    """Fit error ~ c * n**-slope in log2-log2 coordinates.

    With standard errors the fit is weighted least squares, the weights
    propagated through the log transform (sigma_log2 = se / (err * ln 2)) and
    the returned uncertainty is the WLS parameter error.  Without them (or
    with any nonpositive se) it is ordinary least squares with a
    residual-based uncertainty.  Returns the positive decay exponent.
    """
    lv = _check_levels(levels)
    er = np.asarray(errors, dtype=np.float64)
    if er.shape != (len(lv),):
        raise ConfigError(f"expected {len(lv)} errors, got shape {er.shape}")
    if len(lv) < 3:
        raise ConfigError(f"rate fitting needs at least 3 levels, got {len(lv)}")
    if np.any(~np.isfinite(er)) or np.any(er <= 0.0):
        raise DomainError(f"rate fitting needs positive finite errors, got {er}")
    x = np.log2(np.asarray(lv, dtype=np.float64))
    y = np.log2(er)
    if errors_se is not None:
        se = np.asarray(errors_se, dtype=np.float64)
        if se.shape != er.shape:
            raise ConfigError("errors and errors_se must have the same length")
        if np.all(se > 0.0):
            sigma = se / (er * _LOG2E_LN)
            w = 1.0 / sigma**2
            s0 = w.sum()
            sx = (w * x).sum()
            sy = (w * y).sum()
            sxx = (w * x * x).sum()
            sxy = (w * x * y).sum()
            delta = s0 * sxx - sx * sx
            slope = (s0 * sxy - sx * sy) / delta
            return -slope, math.sqrt(s0 / delta)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    var = float(resid @ resid) / (len(lv) - 2) / sxx
    return -slope, math.sqrt(max(var, 0.0))


def _fitted_report(levels, errors, ses, metadata: dict) -> RateReport:
    """RateReport over the levels, with the slope fitted unless no fit applies.

    Errors all below EXACT_TOL mark an exact reproduction and fewer than three
    levels leave too little to fit; both report a NaN slope.
    """
    errors = tuple(float(e) for e in errors)
    ses = tuple(float(s) for s in ses)
    exact = bool(np.max(errors) < EXACT_TOL)
    slope, slope_se = math.nan, math.nan
    if not exact and len(levels) >= 3:
        slope, slope_se = fit_rate(levels, errors, ses)
    return RateReport(levels=levels, errors=errors, errors_se=ses, slope=slope,
                      slope_se=slope_se, exact=exact, metadata=metadata)


# ---------------------------------------------------------------------------
# Test functions for weak error / total variation lower bounds


@dataclass(frozen=True)
class TestFunctionSet:
    """Named observables f(x, v) -> scalar per sample, each with sup norm <= 1.

    The boundedness makes any |E f(Z_ref) - E f(Z_n)| a valid lower bound for
    the total variation distance between the two laws.  Callables take
    (samples, d) position and velocity arrays and return a (samples,) array.
    """

    names: tuple[str, ...]
    funcs: tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        names = tuple(str(s) for s in self.names)
        funcs = tuple(self.funcs)
        if not names or len(names) != len(funcs):
            raise ConfigError("names and funcs must be nonempty and of equal length")
        if len(set(names)) != len(names):
            raise ConfigError(f"test function names must be unique, got {names}")
        if not all(callable(f) for f in funcs):
            raise ConfigError("every test function must be callable")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "funcs", funcs)

    def __len__(self) -> int:
        return len(self.names)


def default_test_functions(d: int = 1) -> TestFunctionSet:
    """Eight bounded smooth observables mixing odd and even symmetry."""
    check_int("d", d, 1)

    def sin_v1(x, v):
        return np.sin(v[:, 0])

    def cos_v1(x, v):
        return np.cos(v[:, 0])

    def sin_x1(x, v):
        return np.sin(x[:, 0])

    def cos_x1(x, v):
        return np.cos(x[:, 0])

    def sin_x1_plus_v1(x, v):
        return np.sin(x[:, 0] + v[:, 0])

    def gauss_bump(x, v):
        return np.exp(-(x * x).sum(axis=1) - (v * v).sum(axis=1))

    def hermite_x1(x, v):
        return x[:, 0] * np.exp(-0.5 * x[:, 0] ** 2)

    def hermite_v1(x, v):
        return v[:, 0] * np.exp(-0.5 * v[:, 0] ** 2)

    return TestFunctionSet(
        names=("sin_v1", "cos_v1", "sin_x1", "cos_x1", "sin_x1_plus_v1",
               "gauss_bump", "hermite_x1", "hermite_v1"),
        funcs=(sin_v1, cos_v1, sin_x1, cos_x1, sin_x1_plus_v1,
               gauss_bump, hermite_x1, hermite_v1),
    )


# ---------------------------------------------------------------------------
# Strong error


def _assert_coupling(dw_f, di_f, dw_c, di_c, factor: int, h_fine: float) -> None:
    """Verify coarse and fine prefix (W, I) agree at shared grid times."""
    wf, i_f = prefix_integrals(dw_f, di_f, h_fine)
    wc, i_c = prefix_integrals(dw_c, di_c, h_fine * factor)
    if not np.allclose(wf[::factor], wc, rtol=1e-10, atol=1e-10):
        raise KineticEmError("coupling violated: coarse W prefix drifts from fine")
    if not np.allclose(i_f[::factor], i_c, rtol=1e-10, atol=1e-10):
        raise KineticEmError("coupling violated: coarse I prefix drifts from fine")


def _bootstrap_norms(em: np.ndarray, m: float, bootstrap: int, gen) -> np.ndarray:
    """L^m norms of `bootstrap` resamples of the samples whose m-th powers are em.

    The resamples are drawn in row batches of about _BOOTSTRAP_INDICES
    indices, one after another from `gen`: the indices equal a single
    (bootstrap, samples) draw, but memory stays bounded as `samples` grows.
    """
    samples = em.shape[0]
    rows = max(1, _BOOTSTRAP_INDICES // samples)
    norms = np.empty(bootstrap)
    for r in range(0, bootstrap, rows):
        idx = gen.integers(0, samples, size=(min(rows, bootstrap - r), samples))
        norms[r:r + len(idx)] = np.mean(em[idx], axis=1) ** (1.0 / m)
    return norms


def strong_error(
    drift: DriftSpec,
    theta: float,
    levels,
    n_ref: int,
    m: float = 2.0,
    samples: int = 1000,
    seed: int = 0,
    *,
    d: int = 1,
    horizon: float = 1.0,
    reference: str = "self",
    initial=None,
    quad_order: int = 8,
    threads: int = 1,
    bootstrap: int = 200,
) -> RateReport:
    """Pathwise L^m error of the scheme against a reference on the same noise.

    Per sample one fine increment set is drawn at n_ref; the reference is
    either the scheme at n_ref with its own mollification ("self") or, for
    zero / linear-friction drifts, the exact solution stepped with the exact
    per-step Gaussian transition on the fine grid ("exact").  Every coarse
    level reuses the same path through increment aggregation, the per-sample
    error is the sup over the level's grid times of the phase-space distance,
    and the L^m norm over samples gets a bootstrap standard error.
    """
    levels, n_ref = _check_ref_levels(levels, n_ref)
    d = check_int("d", d, 1)
    m = check_real("m", m, 1)
    if drift.p_label is not None and m > min(drift.p_label) - 1.0:
        raise ConfigError(f"m must be <= min(p) - 1 = {min(drift.p_label) - 1.0} "
                          f"for drift {drift.drift_id}, got {m}")
    samples = check_int("samples", samples, 100)
    bootstrap = check_int("bootstrap", bootstrap, 2)
    if reference not in ("self", "exact"):
        raise ConfigError(f"reference must be 'self' or 'exact', got {reference!r}")
    gamma = None
    if reference == "exact":
        if drift.kind == "linear_friction":
            gamma = float(drift.gamma)
        elif drift.kind == "zero":
            gamma = 0.0
        else:
            raise ConfigError(
                f"reference = exact needs a zero or linear_friction drift, got {drift.kind}"
            )
    threads = check_int("threads", threads, 1)

    grid_ref = GridSpec(n=n_ref, horizon=horizon, d=d)
    k_ref = grid_ref.num_steps
    grids = [GridSpec(n=n, horizon=horizon, d=d) for n in levels]
    k_lcm = GridSpec(n=math.lcm(*levels), horizon=horizon, d=d).num_steps
    stride = k_ref // k_lcm
    md_ref = None if reference == "exact" else mollify(drift, n_ref, theta, d=d)
    md_levels = [mollify(drift, n, theta, d=d) for n in levels]
    x0, v0 = resolve_initial(initial, d)

    def work(lo: int, hi: int, dw: np.ndarray, di: np.ndarray) -> np.ndarray:
        errs = np.empty((hi - lo, len(levels)))
        if reference == "exact":
            x = np.broadcast_to(x0, (hi - lo, d)).copy()
            v = np.broadcast_to(v0, (hi - lo, d)).copy()
            residuals = [stream_key(ROLE_OU_RESIDUAL, s) for s in range(lo, hi)]
            tiles = _normal_tiles(seed, residuals, k_ref, d)
            rx, rv = exact_linear_block(gamma, grid_ref.h, dw, di, tiles, x, v,
                                        record_stride=stride)
            _check_finite(drift, n_ref, lo, x, v)
        else:
            rx, rv = _scheme(drift, md_ref, grid_ref, quad_order, x0, v0, lo, dw, di, stride)
        for li, grid in enumerate(grids):
            factor = k_ref // grid.num_steps
            dwc, dic = coarsen_block(dw, di, factor, grid_ref.h)
            if lo == 0:
                _assert_coupling(dw[:, :1], di[:, :1], dwc[:, :1], dic[:, :1],
                                 factor, grid_ref.h)
            lx, lv = _scheme(drift, md_levels[li], grid, quad_order, x0, v0, lo, dwc, dic, 1)
            # the reference slots at the level's grid times, as a strided view
            s = k_lcm // grid.num_steps
            for lz, rz in ((lx, rx), (lv, rv)):
                np.subtract(lz, rz[s - 1::s], out=lz)
                np.multiply(lz, lz, out=lz)
            dist = np.sqrt(lx.sum(axis=2) + lv.sum(axis=2))
            errs[:, li] = dist.max(axis=0)
        return errs

    errs = run_streams(grid_ref, seed, ROLE_STRONG, 0, samples, _STRONG_CHUNK, threads, work)

    estimates = []
    ses = []
    for li, n in enumerate(levels):
        with np.errstate(over="ignore"):
            em = errs[:, li] ** m
            mean = np.mean(em)
        # an m-th power that underflows to 0 or overflows would fake an
        # exact reproduction or an infinite error
        top = float(errs[:, li].max())
        if top > 0 and not np.finfo(np.float64).tiny <= mean < math.inf:
            raise DomainError(f"m must keep the mean m-th power of the errors in float range: "
                              f"at level {n} it is {float(mean)!r} (largest error {top!r}, "
                              f"m = {m!r})")
        estimates.append(float(mean ** (1.0 / m)))
        gen = make_generator(seed, stream_key(ROLE_BOOTSTRAP, li))
        ses.append(float(_bootstrap_norms(em, m, bootstrap, gen).std(ddof=1)))
    return _fitted_report(levels, estimates, ses, {
        "experiment": "strong_error",
        "drift": drift.drift_id,
        "theta": theta,
        "m": m,
        "samples": samples,
        "seed": seed,
        "n_ref": n_ref,
        "reference": reference,
        "d": d,
        "horizon": horizon,
        "initial": [list(map(float, x0)), list(map(float, v0))],
        "bootstrap": bootstrap,
    })


# ---------------------------------------------------------------------------
# Weak error


@dataclass(frozen=True)
class WeakObservation:
    """One (time, level, test function) cell of a weak error run."""

    t: float
    level: int
    name: str
    mean_ref: float
    se_ref: float
    mean_level: float
    se_level: float
    err: float
    se: float


@dataclass(frozen=True)
class WeakErrorReport:
    """Per-time rate reports plus the full test-function detail table."""

    reports: tuple[RateReport, ...]
    observations: tuple[WeakObservation, ...]
    tv_sq_proxy: tuple[float, ...]
    t_eval: tuple[float, ...]

    @property
    def primary(self) -> RateReport:
        return self.reports[-1]


def _time_steps(grid: GridSpec, t_eval) -> list[int]:
    """Grid step index of each time of the increasing t_eval, or ConfigError naming t_eval."""
    ks = [round(grid.n * _check_horizon("t_eval", t, grid.n)) for t in t_eval]
    if ks[-1] > grid.num_steps:
        raise ConfigError(f"t_eval must be <= horizon = {grid.horizon}, got {t_eval[-1]}")
    return ks


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = values.mean(axis=0)
    sd = values.std(axis=0, ddof=1)
    return mu, sd / math.sqrt(values.shape[0])


def weak_error(
    drift: DriftSpec,
    theta: float,
    levels,
    n_ref: int,
    fset: TestFunctionSet | None = None,
    t_eval: Sequence[float] = (1.0,),
    samples: int = 100_000,
    seed: int = 0,
    *,
    ref_samples: int | None = None,
    d: int = 1,
    horizon: float = 1.0,
    initial=None,
    quad_order: int = 8,
    threads: int = 1,
) -> WeakErrorReport:
    """Law-level error |E f(Z_ref_t) - E f(Z_n_t)| over test functions.

    Reference and level runs use independent streams (no coupling: this is a
    statement about laws).  Per time the aggregate error is the max over the
    test set, its standard error the two-sample one at the argmax, and the
    rate is fitted across levels.  tv_sq_proxy integrates the squared
    aggregate over [0, max(t_eval)] with the integrand pinned to zero at
    t=0 (both runs share the initial state), a biased lower-bound proxy for
    the time-integrated squared total variation distance.
    """
    levels, n_ref = _check_ref_levels(levels, n_ref)
    d = check_int("d", d, 1)
    samples = check_int("samples", samples, 100)
    ref_samples = 4 * samples if ref_samples is None else check_int("ref_samples", ref_samples, 100)
    t_eval = tuple(check_real("t_eval", t, 0, strict=True) for t in t_eval)
    if not t_eval or any(b <= a for a, b in zip(t_eval, t_eval[1:])):
        raise ConfigError(f"t_eval must be nonempty and strictly increasing, got {t_eval}")
    if fset is None:
        fset = default_test_functions(d)
    threads = check_int("threads", threads, 1)

    grid_ref = GridSpec(n=n_ref, horizon=horizon, d=d)
    grids = [GridSpec(n=n, horizon=horizon, d=d) for n in levels]
    ks_ref = _time_steps(grid_ref, t_eval)
    ks_lvl = [_time_steps(g, t_eval) for g in grids]
    md_ref = mollify(drift, n_ref, theta, d=d)
    md_levels = [mollify(drift, n, theta, d=d) for n in levels]
    x0, v0 = resolve_initial(initial, d)
    n_t, n_f = len(t_eval), len(fset)

    def run(md, grid, ks, role, tag, count) -> np.ndarray:
        stride = math.gcd(*ks)

        def work(lo: int, hi: int, dw: np.ndarray, di: np.ndarray) -> np.ndarray:
            rec_x, rec_v = _scheme(drift, md, grid, quad_order, x0, v0, lo, dw, di, stride)
            vals = np.empty((hi - lo, n_t, n_f))
            for ti, k in enumerate(ks):
                slot = k // stride - 1
                xs, vs = rec_x[slot], rec_v[slot]
                for fi, f in enumerate(fset.funcs):
                    vals[:, ti, fi] = f(xs, vs)
            return vals

        return run_streams(grid, seed, role, tag, count, _WEAK_CHUNK, threads, work)

    mu_ref, se_ref = _mean_and_se(run(md_ref, grid_ref, ks_ref, ROLE_WEAK_REF, 0, ref_samples))

    errs = np.empty((n_t, len(levels), n_f))
    errs_se = np.empty_like(errs)
    observations = []
    for li, (n, grid, md) in enumerate(zip(levels, grids, md_levels)):
        mu, se = _mean_and_se(run(md, grid, ks_lvl[li], ROLE_WEAK_LEVEL, li, samples))
        errs[:, li, :] = np.abs(mu_ref - mu)
        errs_se[:, li, :] = np.hypot(se_ref, se)
        for ti, t in enumerate(t_eval):
            for fi, name in enumerate(fset.names):
                observations.append(WeakObservation(
                    t=t, level=n, name=name,
                    mean_ref=float(mu_ref[ti, fi]), se_ref=float(se_ref[ti, fi]),
                    mean_level=float(mu[ti, fi]), se_level=float(se[ti, fi]),
                    err=float(errs[ti, li, fi]), se=float(errs_se[ti, li, fi]),
                ))

    arg = errs.argmax(axis=2)
    ti_ix, li_ix = np.ogrid[:n_t, :len(levels)]
    agg = errs[ti_ix, li_ix, arg]
    agg_se = errs_se[ti_ix, li_ix, arg]

    base_meta = {
        "experiment": "weak_error",
        "drift": drift.drift_id,
        "theta": theta,
        "samples": samples,
        "ref_samples": ref_samples,
        "seed": seed,
        "n_ref": n_ref,
        "d": d,
        "horizon": horizon,
        "initial": [list(map(float, x0)), list(map(float, v0))],
        "test_functions": list(fset.names),
    }
    reports = [_fitted_report(levels, agg[ti], agg_se[ti], dict(base_meta, t=t))
               for ti, t in enumerate(t_eval)]

    knots = np.concatenate([[0.0], np.asarray(t_eval)])
    proxy = []
    for li in range(len(levels)):
        sq = np.concatenate([[0.0], agg[:, li] ** 2])
        proxy.append(float(np.sum(0.5 * (sq[1:] + sq[:-1]) * np.diff(knots))))

    return WeakErrorReport(
        reports=tuple(reports),
        observations=tuple(observations),
        tv_sq_proxy=tuple(proxy),
        t_eval=t_eval,
    )


# ---------------------------------------------------------------------------
# Taming demonstration


@dataclass(frozen=True)
class TamingDemoReport:
    """Paired rates showing the gain of the transport-shift correction.

    `uncorrected` tracks E|f(I_T) - f(I_s)| with s the last grid point below
    T (decay ~ n^-1); `shifted` tracks E|f(I_T) - f(I_s + (T-s) W_s)| where
    the known transport of the Brownian position is added back (~ n^-3/2).
    gap_means / gap_ses cover the per-level paired difference
    (uncorrected sample - shifted sample), positive when the shift helps.
    """

    uncorrected: RateReport
    shifted: RateReport
    gap_means: tuple[float, ...]
    gap_ses: tuple[float, ...]
    horizon: float


def taming_demo(
    levels,
    samples: int = 100_000,
    seed: int = 0,
    *,
    horizon: float = 47.0 / 48.0,
    d: int = 1,
) -> TamingDemoReport:
    """Estimate the two freezing errors of the Brownian running integral.

    Everything is sampled exactly from the joint Gaussian law of
    (W_s, I_s, I_T); no scheme runs.  The observable f is the sine of the
    first coordinate.  The target time should be off-grid for every level:
    levels where it falls on the grid make both errors exactly zero and are
    dropped with a warning.
    """
    levels = _check_levels(levels)
    samples = check_int("samples", samples, 100)
    d = check_int("d", d, 1)
    t_final = check_real("horizon", horizon, 0, strict=True)

    kept = []
    dropped = []
    for li, n in enumerate(levels):
        if abs(n * t_final - round(n * t_final)) < 1e-9:
            dropped.append(n)
        else:
            kept.append((li, n))
    if not kept:
        raise ConfigError(f"horizon must lie off the grid of some level, got {t_final}")
    if dropped:
        warnings.warn(
            f"target time {t_final} lies on the grid of levels {dropped}; "
            "the comparison degenerates there and those levels are dropped",
            ConfigWarning,
            stacklevel=2,
        )

    est_i, se_i, est_j, se_j = [], [], [], []
    gap_means, gap_ses = [], []
    s_times, deltas = [], []
    for li, n in kept:
        k = math.floor(n * t_final)
        s = k / n
        delta = t_final - s
        words = normal_words(seed, stream_key(ROLE_DEMO, 0, level=li),
                             4 * samples * d).reshape(samples, d, 4)
        w_s, i_s = kernel_pair(s, words[..., 0], words[..., 1])
        di_tail = kernel_pair(delta, words[..., 2], words[..., 3])[1]
        i_t = i_s + delta * w_s + di_tail
        f_t = np.sin(i_t[:, 0])
        ivals = np.abs(f_t - np.sin(i_s[:, 0]))
        jvals = np.abs(f_t - np.sin(i_s[:, 0] + delta * w_s[:, 0]))
        for means, ses, vals in ((est_i, se_i, ivals), (est_j, se_j, jvals),
                                 (gap_means, gap_ses, ivals - jvals)):
            mu, se = _mean_and_se(vals)
            means.append(float(mu))
            ses.append(float(se))
        s_times.append(s)
        deltas.append(delta)

    kept_levels = tuple(n for _, n in kept)
    meta = {
        "experiment": "taming_demo",
        "samples": samples,
        "seed": seed,
        "horizon": t_final,
        "d": d,
        "observable": "sin_first",
        "s_times": s_times,
        "deltas": deltas,
        "dropped_levels": dropped,
    }
    return TamingDemoReport(
        uncorrected=_fitted_report(kept_levels, est_i, se_i,
                                   dict(meta, comparison="uncorrected")),
        shifted=_fitted_report(kept_levels, est_j, se_j, dict(meta, comparison="shifted")),
        gap_means=tuple(gap_means),
        gap_ses=tuple(gap_ses),
        horizon=t_final,
    )


# ---------------------------------------------------------------------------
# Total variation histogram proxy


@dataclass(frozen=True)
class TvProxyReport:
    """Histogram L1/2 distance between scheme laws at two resolutions.

    Biased (binning loses mass differences inside cells and Monte Carlo noise
    adds spurious ones); `diagnostic` repeats the estimate at twice the bin
    count and `noise_floor` is the expected estimate for identical laws.
    """

    estimate: float
    diagnostic: float
    noise_floor: float
    bins: int
    metadata: dict


def _hist_freq(x, v, edges_x, edges_v) -> np.ndarray:
    counts, _, _ = np.histogram2d(
        np.clip(x, edges_x[0], edges_x[-1]),
        np.clip(v, edges_v[0], edges_v[-1]),
        bins=[edges_x, edges_v],
    )
    return counts / x.size


def tv_proxy(
    drift: DriftSpec,
    theta: float,
    n: int,
    n_ref: int,
    t: float = 1.0,
    bins: int = 24,
    samples: int = 20_000,
    seed: int = 0,
    *,
    d: int = 1,
    initial=None,
    quad_order: int = 8,
    threads: int = 1,
    radius_sds: float = 4.0,
) -> TvProxyReport:
    """Biased total variation estimate between the laws at n and n_ref.

    Both resolutions are simulated to time t on independent streams, the
    final states are histogrammed on a shared grid spanning the pooled mean
    +/- radius_sds standard deviations per axis (tails clipped into the edge
    bins), and half the L1 distance of the bin frequencies is reported.
    """
    if d != 1:
        raise DomainError(f"d must be 1 for the histogram proxy (cost), got {d}")
    n, n_ref = check_int("n", n, 1), check_int("n_ref", n_ref, 1)
    for res in (n, n_ref):
        _check_horizon("t", t, res)
    bins = check_int("bins", bins, 8)
    radius_sds = check_real("radius_sds", radius_sds, 0, strict=True)
    # 8 samples per bin of the bins x bins histogram, for a stable estimate
    samples = check_int("samples", samples, 8 * bins * bins)
    threads = check_int("threads", threads, 1)
    grid_n = GridSpec(n=n, horizon=t, d=d)
    grid_ref = GridSpec(n=n_ref, horizon=t, d=d)
    x0, v0 = resolve_initial(initial, d)

    finals = {}
    for tag, grid, md in (
        (0, grid_n, mollify(drift, n, theta, d=d)),
        (1, grid_ref, mollify(drift, n_ref, theta, d=d)),
    ):
        def work(lo: int, hi: int, dw: np.ndarray, di: np.ndarray) -> np.ndarray:
            # recording after the last step only keeps the final (x, v), d = 1
            rx, rv = _scheme(drift, md, grid, quad_order, x0, v0, lo, dw, di, grid.num_steps)
            return np.concatenate((rx[-1], rv[-1]), axis=1)

        finals[tag] = run_streams(grid, seed, ROLE_TV, tag, samples, _TV_CHUNK, threads, work)

    spans = []
    for axis in range(2):
        pool = np.concatenate([finals[0][:, axis], finals[1][:, axis]])
        center = float(pool.mean())
        sd = float(pool.std())
        half = max(radius_sds * sd, 1e-12)
        spans.append((center - half, center + half))

    def estimate_at(nb: int) -> tuple[float, np.ndarray]:
        """Half the L1 distance of the bin frequencies, and their pooled mean."""
        ex = np.linspace(spans[0][0], spans[0][1], nb + 1)
        ev = np.linspace(spans[1][0], spans[1][1], nb + 1)
        p = _hist_freq(*finals[0].T, ex, ev)
        q = _hist_freq(*finals[1].T, ex, ev)
        return float(0.5 * np.abs(p - q).sum()), 0.5 * (p + q)

    estimate, pooled = estimate_at(bins)
    # E|p_i - q_i| under equal laws: half-normal with the two-sample variance
    noise = 0.5 * math.sqrt(2.0 / math.pi) * np.sqrt(
        pooled * (1.0 - pooled) * (2.0 / samples)
    ).sum()

    return TvProxyReport(
        estimate=estimate,
        diagnostic=estimate_at(2 * bins)[0],
        noise_floor=float(noise),
        bins=bins,
        metadata={
            "experiment": "tv_proxy",
            "drift": drift.drift_id,
            "theta": theta,
            "n": n,
            "n_ref": n_ref,
            "t": t,
            "samples": samples,
            "seed": seed,
            "d": d,
            "initial": [list(map(float, x0)), list(map(float, v0))],
            "spans": spans,
            "radius_sds": radius_sds,
        },
    )
