"""Closed-form transition kernel of free kinetic motion and related operators.

The central object is the Gaussian law of the pair ``G_t = (int_0^t W_s ds,
W_t)`` for a d-dimensional Brownian motion ``W``: per dimension the pair
``(W_t, int_0^t W_s ds)`` has covariance ``[[t, t^2/2], [t^2/2, t^3/3]]``.
Its density ``g_t(x, v)`` (``x`` the integral component, ``v`` the endpoint)
is the transition kernel of kinetic free flow.  The transport shift, the
kernel pair map, mixed position/velocity Lebesgue norms and the scaling and
normalization identities here are the exact objects the integrator, the
samplers and ``kernel-check`` rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_int

__all__ = [
    "PhaseState",
    "KernelCovariance",
    "MixedExponent",
    "PhaseGrid1D",
    "gamma_shift",
    "kernel_pair",
    "kernel_density",
    "mixed_lp_norm",
    "kernel_grid",
    "kernel_mass",
    "kernel_norm_exponent_fit",
    "scaling_identity_error",
    "covariance_form_error",
]


def _as_component(a, name: str) -> np.ndarray:
    try:
        arr = np.atleast_1d(np.asarray(a, dtype=np.float64))
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be numeric, got {a!r}") from None
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a scalar or 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError(f"{name} must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class PhaseState:
    """A point z = (x, v) in position-velocity space, both components length d."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = _as_component(self.x, "x")
        v = _as_component(self.v, "v")
        if x.shape != v.shape:
            raise DomainError(f"x and v must share length, got {x.size} and {v.size}")
        x.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.x.size


def as_phase_state(z) -> PhaseState:
    """Coerce a PhaseState or an (x, v) pair of scalars/vectors."""
    if isinstance(z, PhaseState):
        return z
    try:
        x, v = z
    except (TypeError, ValueError):
        raise DomainError(f"expected a PhaseState or an (x, v) pair, got {z!r}") from None
    return PhaseState(x, v)


def _check_time(t) -> float:
    """A positive finite real time as a float; bool is not a time."""
    if (isinstance(t, bool) or not isinstance(t, numbers.Real)
            or not (math.isfinite(t) and t > 0)):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    return float(t)


@dataclass(frozen=True)
class KernelCovariance:
    """Per-dimension covariance of (W_t, int_0^t W_s ds), ordered (increment, integral)."""

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", _check_time(self.t))

    @property
    def matrix(self) -> np.ndarray:
        t = self.t
        return np.array([[t, t * t / 2.0], [t * t / 2.0, t**3 / 3.0]])


@dataclass(frozen=True)
class MixedExponent:
    """Mixed integrability exponents (p_x, p_v); math.inf marks a sup norm."""

    p_x: float
    p_v: float

    def __post_init__(self):
        for name, p in (("p_x", self.p_x), ("p_v", self.p_v)):
            if not (p >= 1.0):
                raise DomainError(f"{name} must lie in [1, inf], got {p}")
        object.__setattr__(self, "p_x", float(self.p_x))
        object.__setattr__(self, "p_v", float(self.p_v))


def gamma_shift(t: float, z: PhaseState) -> PhaseState:
    """Transport shift (x, v) -> (x + t*v, v), the free flow of the kinetic system.

    Total and bijective for every real t; ``gamma_shift(-t, .)`` inverts it,
    and shifts compose additively in t.
    """
    z = as_phase_state(z)
    return PhaseState(z.x + t * z.v, z.v)


def _exponent_terms(t: float, x, v):
    """The per-dimension terms (x^2, (3x - 2tv)^2) of g_t's exponent."""
    return x * x, (3.0 * x - 2.0 * t * v) ** 2


def _density(t: float, d: int, sq, cross):
    """g_t from its exponent terms summed over the d dimensions."""
    expo = -(3.0 * sq + cross) / (2.0 * t**3)
    log_pref = d * (0.5 * math.log(3.0) - math.log(math.pi) - 2.0 * math.log(t))
    return np.exp(log_pref + expo)


def kernel_density(t: float, x, v) -> np.ndarray | float:
    """Density of G_t = (integral component x, endpoint component v).

    Parameters
    ----------
    t : float
        Positive time.
    x, v : array_like
        Evaluation points, arrays of matching shape (..., d).

    Returns
    -------
    float or ndarray
        The Gaussian density with per-dimension covariance
        ``KernelCovariance(t)``.  The exponent is computed as
        ``-(3|x|^2 + |3x - 2tv|^2) / (2 t^3)``, which is identical to the
        quadratic form of that covariance; the prefactor per dimension is
        ``sqrt(3) / (pi t^2)`` so that the density integrates to one.
    """
    t = _check_time(t)
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise DomainError("x and v must have matching shapes")
    d = x.shape[-1] if x.ndim else 1
    sq, cross = _exponent_terms(t, x, v)
    out = _density(t, d, np.sum(sq, axis=-1), np.sum(cross, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def scaling_identity_error(t: float, z) -> float:
    """Relative error of the parabolic scaling g_t(x,v) = t^-2d g_1(t^-3/2 x, t^-1/2 v)."""
    t = _check_time(t)
    zz = as_phase_state(z)
    lhs = kernel_density(t, zz.x, zz.v)
    sc = t ** (-2.0 * zz.d) * kernel_density(1.0, t**-1.5 * zz.x, t**-0.5 * zz.v)
    return abs(lhs - sc) / max(abs(sc), np.finfo(float).tiny)


def covariance_form_error(t: float, z) -> float:
    """Relative gap between the closed-form exponent and 1/2 z^T Sigma(t)^-1 z."""
    t = _check_time(t)
    zz = as_phase_state(z)
    sq, cross = _exponent_terms(t, zz.x, zz.v)
    expo = (3.0 * np.sum(sq) + np.sum(cross)) / (2.0 * t**3)
    inv = np.linalg.inv(KernelCovariance(t).matrix)
    quad = 0.0
    for i in range(zz.d):
        zi = np.array([zz.v[i], zz.x[i]])  # (increment, integral) ordering
        quad += 0.5 * zi @ inv @ zi
    return abs(expo - quad) / max(abs(quad), 1e-300)


C12 = 1.0 / math.sqrt(12.0)


def kernel_pair(t: float, a, b):
    """Map iid unit normals (a, b) to (W_t, int_0^t W_s ds) ~ KernelCovariance(t).

    The pair is (sqrt(t) a, t^(3/2) (a/2 + b/sqrt(12))), an exact Cholesky-type
    factorization since (1/2)^2 + (1/sqrt(12))^2 = 1/3.
    """
    return math.sqrt(t) * a, t**1.5 * (0.5 * a + C12 * b)


@dataclass(frozen=True)
class PhaseGrid1D:
    """Tensor quadrature grid on the (x, v) plane (d = 1): nodes plus weights."""

    x: np.ndarray
    wx: np.ndarray
    v: np.ndarray
    wv: np.ndarray

    def __post_init__(self):
        for name in ("x", "wx", "v", "wv"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise DomainError(f"grid array {name} must be non-empty and 1-D")
            object.__setattr__(self, name, arr)
        if self.x.size != self.wx.size or self.v.size != self.wv.size:
            raise DomainError("grid nodes and weights must have equal lengths")


def _trapezoid_axis(radius: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.linspace(-radius, radius, points)
    w = np.full(points, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


# Half-width of the kernel quadrature grids, in standard deviations per axis.
_RADIUS_SDS = 8.0


def kernel_grid(t: float, points: int = 257) -> PhaseGrid1D:
    """Trapezoid grid spanning +-_RADIUS_SDS standard deviations of g_t per axis.

    The x axis scales with sqrt(t^3/3) and the v axis with sqrt(t); Gaussian
    tails make the truncation error negligible at that radius.  `points`, the
    node count per axis, must be at least 2.
    """
    t = _check_time(t)
    points = check_int("points", points, 2)
    sx = math.sqrt(t**3 / 3.0)
    sv = math.sqrt(t)
    x, wx = _trapezoid_axis(_RADIUS_SDS * sx, points)
    v, wv = _trapezoid_axis(_RADIUS_SDS * sv, points)
    return PhaseGrid1D(x, wx, v, wv)


def mixed_lp_norm(f, p: MixedExponent, grid: PhaseGrid1D) -> float:
    """Mixed norm: p_x over the position axis inside, p_v over velocity outside.

    The callable `f(x, v)` takes the tensor grid's position and velocity
    arrays, of shape (len(grid.x), len(grid.v), 1), and returns values of
    shape (len(grid.x), len(grid.v)).  Infinite exponents are computed as
    grid maxima.
    """
    if not isinstance(p, MixedExponent):
        p = MixedExponent(*p)
    if not callable(f):
        raise ConfigError(f"f must be a callable f(x, v), got {type(f).__name__}")
    xx, vv = np.meshgrid(grid.x, grid.v, indexing="ij")
    vals = np.asarray(f(xx[..., None], vv[..., None]), dtype=np.float64)
    if vals.shape != (grid.x.size, grid.v.size):
        raise DomainError(
            f"gridded values have shape {vals.shape}, expected {(grid.x.size, grid.v.size)}"
        )
    a = np.abs(vals)
    if math.isinf(p.p_x):
        inner = a.max(axis=0)
    else:
        inner = (grid.wx @ a**p.p_x) ** (1.0 / p.p_x)
    if math.isinf(p.p_v):
        return float(inner.max())
    return float((grid.wv @ inner**p.p_v) ** (1.0 / p.p_v))


def kernel_mass(t: float, d: int = 1, points: int | None = None) -> float:
    """Quadrature of the kernel density over phase space (normalization check).

    Uses the tensor trapezoid rule of kernel_grid; the integrand is
    evaluated in slabs along the first axis to bound memory for d = 2.
    """
    t = _check_time(t)
    if d not in (1, 2):
        raise DomainError("kernel_mass supports d in {1, 2}")
    if points is None:
        points = 257 if d == 1 else 97
    grid = kernel_grid(t, points)
    ax, awx, av, awv = grid.x, grid.wx, grid.v, grid.wv
    if d == 1:
        xx, vv = np.meshgrid(ax, av, indexing="ij")
        vals = kernel_density(t, x=xx[..., None], v=vv[..., None])
        return float(awx @ vals @ awv)
    total = 0.0
    wrest = (
        awx[:, None, None] * awv[None, :, None] * awv[None, None, :]
    )  # weights for (x2, v1, v2)
    x2, v1, v2 = np.meshgrid(ax, av, av, indexing="ij")
    # the slabs differ only in x1, so the second dimension's terms are formed once
    sq2, cross2 = _exponent_terms(t, x2, v2)
    for i in range(points):
        sq1, cross1 = _exponent_terms(t, ax[i], v1)
        vals = _density(t, 2, sq1 + sq2, cross1 + cross2)
        total += awx[i] * float(np.sum(vals * wrest))
    return total


def kernel_norm_exponent_fit(
    p: MixedExponent,
    alpha: float = 0.0,
    beta: float = 0.0,
    points: int = 257,
) -> tuple[float, float, list[float]]:
    """Fit the time-scaling exponent of t -> || |x|^alpha |v|^beta g_t ||_p (d = 1).

    The times are 1/16, 1/8, 1/4, 1/2 and 1.

    Returns
    -------
    (fitted, expected, norms)
        `fitted` is the least-squares slope of log2 norm against log2 t;
        `expected` is 3*alpha/2 + beta/2 - (1/2) * (3*(1 - 1/p_x) + (1 - 1/p_v)),
        exact for the kernel by its parabolic scaling; `norms` are the
        computed norm values.
    """
    if not isinstance(p, MixedExponent):
        p = MixedExponent(*p)
    t_values = (2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1, 1.0)
    norms = []
    for t in t_values:
        grid = kernel_grid(t, points=points)

        def weighted(x, v, _t=t):
            w = np.abs(x[..., 0]) ** alpha * np.abs(v[..., 0]) ** beta
            return w * kernel_density(_t, x, v)

        norms.append(mixed_lp_norm(weighted, p, grid))
    ix = 0.0 if math.isinf(p.p_x) else 1.0 / p.p_x
    iv = 0.0 if math.isinf(p.p_v) else 1.0 / p.p_v
    expected = 1.5 * alpha + 0.5 * beta - 0.5 * (3.0 * (1.0 - ix) + (1.0 - iv))
    lt = np.log2(np.asarray(t_values, dtype=np.float64))
    ln = np.log2(np.asarray(norms, dtype=np.float64))
    fitted = float(np.polyfit(lt, ln, 1)[0])
    return fitted, expected, norms
