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
import hashlib
import inspect
import io
import math
from dataclasses import dataclass, field
from typing import ClassVar, TextIO

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DomainError, ExtrapolationError, check_int, check_real

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

# Closed-form mollifications exist exactly for these kinds; they also depend
# on z only through v, so the transport shift acts trivially on them.
CLOSED_FORM_KINDS = ("zero", "constant", "linear_friction", "sign_velocity")

# Gauss-Hermite products formed per block of states in _quadrature_eval: the
# block is at most this many (P, P) grid points or a single state.  About
# 256 KB of float64, so each block's product, weighting and sum stay in cache.
_BLOCK_POINTS = 1 << 15
# Blocks per chunk of states whose (chunk, P) offsets are formed at once.  The
# chunk bounds the offset buffers (32 KB each at P = 64), so a call's working
# set does not grow with the number of states and its buffers stay small
# enough for malloc to recycle: whole-call offset arrays cost every call
# hundreds of fresh page faults, whose price varies from run to run.
_CHUNK_BLOCKS = 8


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

    `p_label` is nominal integrability metadata used only for the
    taming-exponent and moment-order admissibility checks; nothing numerical
    is derived from it.
    """

    kind: str
    constant: tuple[float, ...] = ()
    gamma: float = 1.0
    kappa: float = 3.0
    profile_beta: float = 0.25
    table: TabulatedField | None = None
    p_label: tuple[float, float] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in _DRIFT_PARAMS:
            raise ConfigError(
                f"unknown drift kind {self.kind!r}; choose from {tuple(_DRIFT_PARAMS)}")
        if self.kind == "linear_friction":
            check_real("gamma", self.gamma, 0)
        if self.kind == "oscillatory_singular":
            check_real("kappa", self.kappa)
            check_real("beta", self.profile_beta, 0)
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
    return DriftSpec(kind="zero")


def constant_drift(c=1.0) -> DriftSpec:
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not np.all(np.isfinite(c)):
        raise DomainError(f"c must be finite, got {tuple(c.tolist())}")
    return DriftSpec(kind="constant", constant=tuple(float(ci) for ci in c))


def linear_friction(gamma: float = 1.0) -> DriftSpec:
    return DriftSpec(kind="linear_friction", gamma=float(gamma))


def sign_velocity() -> DriftSpec:
    # Nominal integrability label of the velocity sign field; checks only.
    return DriftSpec(kind="sign_velocity", p_label=(8.0, 4.0))


def oscillatory_singular(kappa: float = 3.0, beta: float = 0.25) -> DriftSpec:
    return DriftSpec(kind="oscillatory_singular", kappa=float(kappa), profile_beta=float(beta),
                     p_label=(8.0, 4.0))


def tabulated_drift(table: TabulatedField) -> DriftSpec:
    return DriftSpec(kind="tabulated", table=table)


def _read_tabulated(table_path) -> tuple[DriftSpec, str]:
    """The tabulated drift in the file table_path, and the sha256 of the bytes it came from.

    The file is read once, so the hash describes the table that runs.  A
    table that does not parse is a ConfigError naming table_path.
    """
    with open(table_path, "rb") as fh:
        data = fh.read()
    try:
        table = load_tabulated(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"table_path {table_path!r} is not a drift table: {exc}") from exc
    return tabulated_drift(table), hashlib.sha256(data).hexdigest()


def _tabulated_from_path(table_path=None) -> DriftSpec:
    if table_path is None:
        raise ConfigError("table_path must be set for drift tabulated")
    return _read_tabulated(table_path)[0]


# each drift kind's constructor; its parameters are the configuration keys
# the kind takes, and their defaults the kind's defaults
_CATALOG = {
    "zero": zero_drift,
    "constant": constant_drift,
    "linear_friction": linear_friction,
    "sign_velocity": sign_velocity,
    "oscillatory_singular": oscillatory_singular,
    "tabulated": _tabulated_from_path,
}
_DRIFT_PARAMS = {k: tuple(inspect.signature(f).parameters) for k, f in _CATALOG.items()}


def _separable(drift: DriftSpec):
    """In-place evaluators (f, g) of the factors of b = f(x) g(v), or None.

    Only oscillatory_singular factors: f = sign(sin(kappa x)) and
    g = min(|v|, 1)^beta.  Each evaluator overwrites its argument, which must
    be a writable float64 array, with the factor's values and returns it.
    """
    if drift.kind != "oscillatory_singular":
        return None

    def f(x):
        np.multiply(x, drift.kappa, out=x)
        np.sin(x, out=x)
        return np.sign(x, out=x)

    def g(v):
        np.abs(v, out=v)
        np.minimum(v, 1.0, out=v)
        v **= drift.profile_beta
        return v

    return f, g


def evaluate_arrays(drift: DriftSpec, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized b(z) on arrays of shape (..., d)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if drift.kind == "zero":
        return np.zeros_like(v)
    if drift.kind == "constant":
        c = np.asarray(drift.constant, dtype=np.float64)
        if c.size not in (1, v.shape[-1]):
            raise DomainError(
                f"constant drift has length {c.size}, state dimension is {v.shape[-1]}"
            )
        return np.broadcast_to(c, v.shape).copy()
    if drift.kind == "linear_friction":
        return -drift.gamma * v
    if drift.kind == "sign_velocity":
        return np.sign(v)
    if drift.kind == "oscillatory_singular":
        f, g = _separable(drift)
        return f(x.copy()) * g(v.copy())
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
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "theta", check_real("theta", self.theta, 0, strict=True))

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
    """Upper bound on theta from the nominal p label, None if unlabeled.

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
    """Build the mollified drift for dimension d.

    Rejects theta above the labeled admissibility bound, a tabulated drift
    at d > 1 and a constant drift whose length is neither 1 nor d.
    """
    md = MollifiedDrift(base=drift, n=n, theta=theta)
    if drift.kind == "tabulated" and d != 1:
        raise ConfigError(f"d must be 1 for drift tabulated, got {d}")
    if drift.kind == "constant" and len(drift.constant) not in (1, d):
        raise ConfigError(f"c must have 1 or d={d} entries, got {len(drift.constant)}")
    bound = admissibility_bound(drift, d)
    if bound is not None and md.theta >= bound:
        raise ConfigError(
            f"theta must be below the admissibility bound {bound:.4g} "
            f"for drift {drift.drift_id} at d={d}, got {md.theta}"
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


@functools.lru_cache(maxsize=32)
def _weight_grid(points: int, block: int) -> np.ndarray:
    """The weights ws_a * ws_b of the (P, P) grid repeated for `block` states; read-only.

    NumPy multiplies two arrays of one shape about twice as fast as it
    broadcasts the (P, P) grid against a block.
    """
    _, ws = _hermite_rule(points)
    weights = np.empty((block, points, points))
    np.multiply(ws[:, None], ws, out=weights)
    weights.flags.writeable = False
    return weights


def _quadrature_eval(md: MollifiedDrift, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Componentwise 2-D Gauss-Hermite convolution for kinds without closed form.

    Both quadrature kinds have b_i depending on (x_i, v_i) only, so the
    2d-dimensional convolution factorizes into one 2-D quadrature per
    component.  For a field that factors, a v that repeats over leading axes
    (a zero-stride view, as the shifted sub-step quadrature passes it) is
    taken as its distinct velocities, each repeated over those axes; other
    kinds take every state as distinct.  Per component the distinct
    velocities are taken in chunks of _CHUNK_BLOCKS blocks, whose (chunk, P)
    velocity offsets are formed once into a reused buffer, and for each
    repeat the matching states' position offsets into another.  The
    grid sums run in blocks of at most _BLOCK_POINTS grid points: per block
    the (block, P, P) point values are weighted in place and summed over the
    grid, so the product stays in cache instead of streaming (..., P, P)
    temporaries through memory.  No buffer grows with the number of states.

    A field that factors as f(x) g(v) (`_separable`) has f evaluated once on
    each state's P position offsets and g once on each distinct velocity's P
    offsets, and a block's grid is their outer product, written by einsum
    into one reused buffer.  einsum forms a*b + 0, which differs from the a*b
    of `evaluate_arrays` only by turning -0.0 into +0.0; f and g each vanish
    at most once per state, so every signed zero meets non-zero terms in the
    grid sum and cannot change it.  Where v repeats, the weighted grid
    g_b ws_a ws_b of each distinct velocity is summed once into S(v), and a
    state whose f is the same s = +1 or -1 on all P offsets gets s * S(v)
    with no grid of its own: its grid values are s g_b ws_a ws_b exactly,
    and round-to-nearest is symmetric in sign, so the grid sum of -a is -1
    times the grid sum of a bit for bit (g >= +0, so no two zeros of
    opposite sign meet in S, and the zeros of one column again meet
    non-zero terms).  Only states whose f is not constant, or is 0 or NaN,
    build their grid.  Other kinds evaluate b on the broadcast offsets.
    Either way every point value, weighted product and per-state sum is the
    one the whole-array product would give, since each state's sum reads
    only its own contiguous (P, P) slab in the same order, so the bits
    depend neither on the block or chunk size nor on the route.  The result
    is C-ordered whatever the layout of `v`.
    """
    points = md.quad_points
    ys, _ = _hermite_rule(points)
    yx = ys * md.sigma_x  # offsets in x
    yv = ys * md.sigma_v  # offsets in v
    shape = np.broadcast_shapes(x.shape, v.shape)
    d = shape[-1]
    out = np.empty(shape)
    if out.size == 0:
        return out
    out = out.reshape(-1, d)
    xf = np.broadcast_to(x, shape).reshape(-1, d)
    vb = np.broadcast_to(v, shape)
    factors = _separable(md.base)
    lead = 0  # leading axes over which v repeats, where b factors
    while (factors is not None and lead < len(shape) - 1
           and (vb.strides[lead] == 0 or shape[lead] == 1)):
        lead += 1
    vf = vb[(0,) * lead].reshape(-1, d)
    states, distinct = xf.shape[0], vf.shape[0]
    shared = states > distinct
    block = max(1, _BLOCK_POINTS // points**2)
    chunk = block * _CHUNK_BLOCKS
    grid = np.empty((min(block, states), points, points))
    weights = _weight_grid(points, block)
    xbuf = np.empty((min(chunk, distinct), points))
    vbuf = np.empty_like(xbuf)
    sums = np.empty(xbuf.shape[0])

    # The last block's values outlive grid_sums: freeing evaluate_arrays'
    # result at the end of every chunk lets malloc trim the heap, and the next
    # chunk's temporaries then fault their pages in afresh.
    vals = None

    def grid_sums(a, b, dst):
        # per block, the weighted grid sums of the states whose P position and
        # velocity offsets (or f and g on them) are the rows of a and b
        nonlocal vals
        for lo in range(0, len(a), block):
            hi = min(lo + block, len(a))
            if factors is None:
                vals = evaluate_arrays(md.base, a[lo:hi, :, None, None],
                                       b[lo:hi, None, :, None])[..., 0]
            else:
                vals = np.einsum("ia,ib->iab", a[lo:hi], b[lo:hi], out=grid[:hi - lo])
            vals *= weights[:hi - lo]
            np.add.reduce(vals.reshape(hi - lo, -1), axis=1, out=dst[lo:hi])

    for i in range(d):
        for j0 in range(0, distinct, chunk):
            rows = min(chunk, distinct - j0)
            b = np.subtract(vf[j0:j0 + rows, i, None], yv, out=vbuf[:rows])
            if factors is not None:
                b = factors[1](b)
            summed = False
            for start in range(j0, states, distinct):
                a = np.subtract(xf[start:start + rows, i, None], yx, out=xbuf[:rows])
                dst = out[start:start + rows, i]
                rest = None
                if factors is not None:
                    a = factors[0](a)
                if shared:
                    # f sums to +-P only where it is +1 or -1 on every offset
                    const = np.abs(np.add.reduce(a, axis=1)) == points
                    if const.any():
                        if not summed:  # S(v): the grid sum where f = +1
                            grid_sums(np.broadcast_to(1.0, b.shape), b, sums[:rows])
                            summed = True
                        np.multiply(a[:, 0], sums[:rows], out=dst)
                        rest = np.flatnonzero(~const)
                if rest is None:
                    grid_sums(a, b, dst)
                elif rest.size:
                    part = np.empty(rest.size)
                    grid_sums(a[rest], b[rest], part)
                    dst[rest] = part
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


def _drift_params(name: str, given=()) -> tuple[str, ...]:
    """The keys the drift `name` takes; ConfigError for any key of `given` it does not."""
    name = name.strip()
    takes = _DRIFT_PARAMS.get(name)
    if takes is None:
        raise ConfigError(f"drift must be one of {', '.join(_DRIFT_PARAMS)}, got {name!r}")
    for key in given:
        if key not in takes:
            raise ConfigError(f"key {key!r} does not apply to drift {name}, which takes "
                              f"{', '.join(takes) or 'no keys'}")
    return takes


def drift_from_name(name: str, **params) -> DriftSpec:
    """Construct a catalog drift from its name; keys left out take its constructor's defaults."""
    name = name.strip()
    _drift_params(name, params)
    return _CATALOG[name](**params)


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
