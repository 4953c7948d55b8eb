"""Catalog of drift fields b(z) and their anisotropic Gaussian mollifications.

The mollified drift at resolution n with taming exponent theta is the
convolution of b with a centered Gaussian whose standard deviation is
n^(-3*theta) in position and n^(-theta) in velocity, i.e. smoothing shrinks
with the step count and three times faster (in exponent) along positions,
matching the kinetic 3:1 scaling.  Closed forms are used where the
convolution is available analytically; the rest goes through Gauss-Hermite
quadrature against the mollifier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, TextIO

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DomainError, ExtrapolationError

__all__ = [
    "DriftSpec",
    "MollifiedDrift",
    "TabulatedField",
    "zero_drift",
    "constant_drift",
    "linear_friction",
    "sign_velocity",
    "oscillatory_singular",
    "tabulated_drift",
    "mollify",
    "drift_from_name",
    "load_tabulated",
    "save_tabulated",
]

_KINDS = ("zero", "constant", "linear_friction", "sign_velocity",
          "oscillatory_singular", "tabulated")

# Closed-form mollifications exist exactly for these kinds; they also depend
# on z only through v, so the transport shift acts trivially on them.
CLOSED_FORM_KINDS = ("zero", "constant", "linear_friction", "sign_velocity")

# Gauss-Hermite products formed per block of states in _quadrature_eval: the
# block is at most this many (P, P) grid points or a single state.  About
# 256 KB of float64, so each block's product, weighting and sum stay in cache.
_BLOCK_POINTS = 1 << 15


def _check_int(name: str, value, minimum: int) -> int:
    """An integer argument >= minimum as an int, or ConfigError naming the argument."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TabulatedField:
    """A velocity-field component on a rectangular (x, v) grid, d = 1 only."""

    x: np.ndarray
    v: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if x.ndim != 1 or v.ndim != 1 or x.size < 2 or v.size < 2:
            raise ConfigError("tabulated grid needs >= 2 nodes per axis")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(v) <= 0):
            raise ConfigError("tabulated grid nodes must be strictly increasing")
        if vals.shape != (x.size, v.size):
            raise ConfigError(
                f"tabulated values must have shape {(x.size, v.size)}, got {vals.shape}"
            )
        for name, arr in (("x", x), ("v", v), ("values", vals)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"tabulated {name} has non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def interpolate(self, xq: np.ndarray, vq: np.ndarray) -> np.ndarray:
        """Bilinear interpolation; queries outside the grid raise."""
        xq = np.asarray(xq, dtype=np.float64)
        vq = np.asarray(vq, dtype=np.float64)
        if (np.any(xq < self.x[0]) or np.any(xq > self.x[-1])
                or np.any(vq < self.v[0]) or np.any(vq > self.v[-1])):
            raise ExtrapolationError("tabulated drift queried outside its grid")
        ix = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        iv = np.clip(np.searchsorted(self.v, vq, side="right") - 1, 0, self.v.size - 2)
        x0, x1 = self.x[ix], self.x[ix + 1]
        v0, v1 = self.v[iv], self.v[iv + 1]
        tx = (xq - x0) / (x1 - x0)
        tv = (vq - v0) / (v1 - v0)
        f00 = self.values[ix, iv]
        f10 = self.values[ix + 1, iv]
        f01 = self.values[ix, iv + 1]
        f11 = self.values[ix + 1, iv + 1]
        return ((1 - tx) * (1 - tv) * f00 + tx * (1 - tv) * f10
                + (1 - tx) * tv * f01 + tx * tv * f11)


@dataclass(frozen=True)
class DriftSpec:
    """One catalog entry: an autonomous velocity field z -> b(z) in R^d.

    `beta_label` and `p_label` are nominal regularity metadata used only for
    report annotation and the taming-exponent admissibility check; nothing
    numerical is derived from them.
    """

    kind: str
    constant: tuple[float, ...] = ()
    gamma: float = 1.0
    kappa: float = 3.0
    profile_beta: float = 0.25
    table: TabulatedField | None = None
    beta_label: float | None = None
    p_label: tuple[float, float] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown drift kind {self.kind!r}; choose from {_KINDS}")
        if self.kind == "linear_friction" and not self.gamma >= 0:
            raise ConfigError(f"friction coefficient must be >= 0, got {self.gamma}")
        if self.kind == "oscillatory_singular" and not self.profile_beta >= 0:
            raise ConfigError(f"profile exponent must be >= 0, got {self.profile_beta}")
        if self.kind == "tabulated" and self.table is None:
            raise ConfigError("tabulated drift needs a table")

    @property
    def drift_id(self) -> str:
        if self.kind == "constant":
            return f"constant({','.join(repr(c) for c in self.constant)})"
        if self.kind == "linear_friction":
            return f"linear_friction(gamma={self.gamma!r})"
        if self.kind == "oscillatory_singular":
            return f"oscillatory_singular(kappa={self.kappa!r},beta={self.profile_beta!r})"
        return self.kind


def zero_drift() -> DriftSpec:
    return DriftSpec(kind="zero", beta_label=1.0)


def constant_drift(c) -> DriftSpec:
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not np.all(np.isfinite(c)):
        raise DomainError("constant drift vector must be finite")
    return DriftSpec(kind="constant", constant=tuple(float(ci) for ci in c), beta_label=1.0)


def linear_friction(gamma: float = 1.0) -> DriftSpec:
    return DriftSpec(kind="linear_friction", gamma=float(gamma), beta_label=1.0)


def sign_velocity() -> DriftSpec:
    # Nominal regularity label of the velocity sign field; reporting only.
    return DriftSpec(kind="sign_velocity", beta_label=0.25, p_label=(8.0, 4.0))


def oscillatory_singular(kappa: float = 3.0, beta: float = 0.25) -> DriftSpec:
    return DriftSpec(kind="oscillatory_singular", kappa=float(kappa), profile_beta=float(beta),
                     beta_label=0.25, p_label=(8.0, 4.0))


def tabulated_drift(table: TabulatedField) -> DriftSpec:
    return DriftSpec(kind="tabulated", table=table)


def evaluate_arrays(drift: DriftSpec, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized b(z) on arrays of shape (..., d)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if drift.kind == "zero":
        return np.zeros_like(v)
    if drift.kind == "constant":
        c = np.asarray(drift.constant, dtype=np.float64)
        if c.size == 1:
            return np.broadcast_to(c, v.shape).copy()
        if c.size != v.shape[-1]:
            raise DomainError(
                f"constant drift has length {c.size}, state dimension is {v.shape[-1]}"
            )
        return np.broadcast_to(c, v.shape).copy()
    if drift.kind == "linear_friction":
        return -drift.gamma * v
    if drift.kind == "sign_velocity":
        return np.sign(v)
    if drift.kind == "oscillatory_singular":
        profile = np.minimum(np.abs(v), 1.0) ** drift.profile_beta
        return np.sign(np.sin(drift.kappa * x)) * profile
    if drift.kind == "tabulated":
        if v.shape[-1] != 1:
            raise DomainError("tabulated drift supports d = 1 only")
        out = drift.table.interpolate(x[..., 0], v[..., 0])
        return np.asarray(out)[..., None]
    raise ConfigError(f"unknown drift kind {drift.kind!r}")


@dataclass(frozen=True)
class MollifiedDrift:
    """b convolved with the anisotropic Gaussian at resolution n, exponent theta."""

    base: DriftSpec
    n: int
    theta: float
    # Gauss-Hermite nodes per axis for the kinds without a closed form.
    quad_points: ClassVar[int] = 64

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ConfigError(f"mollification resolution must be a positive integer, got {self.n}")
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ConfigError(f"taming exponent must be positive and finite, got {self.theta}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def sigma_x(self) -> float:
        return float(self.n) ** (-3.0 * self.theta)

    @property
    def sigma_v(self) -> float:
        return float(self.n) ** (-self.theta)

    @property
    def erf_scale(self) -> float:
        """n^theta / sqrt(2): the mollified sign drift is erf(erf_scale * v)."""
        return float(self.n) ** self.theta / math.sqrt(2.0)


def admissibility_bound(drift: DriftSpec, d: int) -> float | None:
    """Upper bound on theta from the nominal (beta, p) label, None if unlabeled.

    The bound is 1 / (2 * (3d/p_x + d/p_v)), the dot product weighting the
    position exponent three times the velocity one.
    """
    if drift.p_label is None:
        return None
    px, pv = drift.p_label
    dot = 3.0 * d / px + d / pv
    if dot == 0.0:
        return math.inf
    return 1.0 / (2.0 * dot)


def mollify(drift: DriftSpec, n: int, theta: float, d: int = 1) -> MollifiedDrift:
    """Build the mollified drift; rejects theta above the labeled admissibility bound."""
    md = MollifiedDrift(base=drift, n=n, theta=theta)
    bound = admissibility_bound(drift, d)
    if bound is not None and theta >= bound:
        raise ConfigError(
            f"taming exponent {theta} violates the admissibility bound {bound:.4g} "
            f"for drift {drift.drift_id} at d={d}"
        )
    return md


@functools.lru_cache(maxsize=32)
def _hermite_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with E f(N(0,1)) = sum w_i f(y_i); read-only, built once."""
    y, w = np.polynomial.hermite.hermgauss(points)
    ys, ws = y * math.sqrt(2.0), w / math.sqrt(math.pi)
    ys.flags.writeable = False
    ws.flags.writeable = False
    return ys, ws


def _quadrature_eval(md: MollifiedDrift, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Componentwise 2-D Gauss-Hermite convolution for kinds without closed form.

    Both quadrature kinds have b_i depending on (x_i, v_i) only, so the
    2d-dimensional convolution factorizes into one 2-D quadrature per
    component.  The states are flattened and taken in blocks of at most
    _BLOCK_POINTS grid points: per block and component the (block, P, P)
    point values are weighted in place and summed over the grid.  Every
    point value, product and per-state sum is the one the whole-array
    product would give, since the grid sum of each state reads only that
    state's contiguous (P, P) slab, so the bits do not depend on the block
    size; the block keeps the product in cache instead of streaming
    (..., P, P) temporaries through memory.  The result is C-ordered
    whatever the layout of `v`.
    """
    points = md.quad_points
    ys, ws = _hermite_rule(points)
    yx = ys[:, None] * md.sigma_x  # offsets in x
    yv = ys[None, :] * md.sigma_v  # offsets in v
    wgrid = ws[:, None] * ws[None, :]
    shape = np.broadcast_shapes(x.shape, v.shape)
    d = shape[-1]
    xf = np.broadcast_to(x, shape).reshape(-1, d)
    vf = np.broadcast_to(v, shape).reshape(-1, d)
    out = np.empty(xf.shape)
    block = max(1, _BLOCK_POINTS // points**2)
    for lo in range(0, out.shape[0], block):
        hi = lo + block
        for i in range(d):
            xi = xf[lo:hi, i, None, None] - yx
            vi = vf[lo:hi, i, None, None] - yv
            vals = evaluate_arrays(md.base, xi[..., None], vi[..., None])[..., 0]
            vals *= wgrid
            out[lo:hi, i] = np.sum(vals, axis=(-2, -1))
    return out.reshape(shape)


def mollify_evaluate_arrays(md: MollifiedDrift, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized mollified drift on arrays of shape (..., d).

    The quadrature kinds use `md.quad_points` Gauss-Hermite nodes per axis.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    kind = md.base.kind
    if kind == "zero":
        return np.zeros_like(v)
    if kind == "constant":
        # Convolution with a probability density leaves constants unchanged.
        return evaluate_arrays(md.base, x, v)
    if kind == "linear_friction":
        # The mollifier is centered, so the linear field is reproduced exactly.
        return -md.base.gamma * v
    if kind == "sign_velocity":
        return erf(md.erf_scale * v)
    return _quadrature_eval(md, x, v)


def drift_from_name(name: str, **params) -> DriftSpec:
    """Construct a catalog drift from its configuration name."""
    name = name.strip()
    if name == "zero":
        return zero_drift()
    if name == "constant":
        return constant_drift(params.get("c", 1.0))
    if name == "linear_friction":
        return linear_friction(params.get("gamma", 1.0))
    if name == "sign_velocity":
        return sign_velocity()
    if name == "oscillatory_singular":
        return oscillatory_singular(params.get("kappa", 3.0), params.get("beta", 0.25))
    if name == "tabulated":
        path = params.get("table_path")
        if path is None:
            raise ConfigError("tabulated drift needs table_path")
        with open(path, "r", encoding="utf-8") as fh:
            return tabulated_drift(load_tabulated(fh))
    raise ConfigError(f"unknown drift name {name!r}")


def save_tabulated(table: TabulatedField, fh: TextIO) -> None:
    """Write the CSV grid format: shape header, column header, x-major rows."""
    fh.write("d,nx,nv\n")
    fh.write(f"1,{table.x.size},{table.v.size}\n")
    fh.write("x,v,b1\n")
    for i in range(table.x.size):
        for j in range(table.v.size):
            fh.write(
                f"{float(table.x[i])!r},{float(table.v[j])!r},"
                f"{float(table.values[i, j])!r}\n"
            )


def load_tabulated(fh: TextIO) -> TabulatedField:
    """Read the CSV grid format written by save_tabulated."""
    header = fh.readline().strip()
    if header.replace(" ", "") != "d,nx,nv":
        raise ConfigError(f"bad tabulated header {header!r}")
    d, nx, nv = (int(tok) for tok in fh.readline().split(","))
    if d != 1:
        raise ConfigError("tabulated drifts support d = 1 only")
    cols = fh.readline().strip().replace(" ", "")
    if cols != "x,v,b1":
        raise ConfigError(f"bad tabulated column header {cols!r}")
    rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (nx * nv, 3):
        raise ConfigError(f"expected {nx * nv} grid rows, got {rows.shape[0]}")
    x = rows[::nv, 0]
    v = rows[:nv, 1]
    values = rows[:, 2].reshape(nx, nv)
    grid_x = np.repeat(x, nv)
    grid_v = np.tile(v, nx)
    if not (np.array_equal(rows[:, 0], grid_x) and np.array_equal(rows[:, 1], grid_v)):
        raise ConfigError("tabulated rows must enumerate the tensor grid in x-major order")
    return TabulatedField(x=x, v=v, values=values)
