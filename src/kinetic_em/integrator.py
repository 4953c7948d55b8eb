"""The tamed, transport-shifted Euler scheme and its reference solvers.

Grid update over a step of size h, driven by the augmented increments
(dW, dI) of a shared path:

    V_{k+1} = V_k + B + dW,        B = int_0^h b_n(x_k + s v_k, v_k) ds,
    X_{k+1} = X_k + h V_k + A + dI, A = int_0^h (h - r) b_n(x_k + r v_k, v_k) dr.

The drift is evaluated along the free flow from the step start (the
transport shift); dI realizes the integral of (W_s - W_step start) so the
X-component is the exact time integral of V modulo sub-step quadrature, and
A is the matching iterated drift integral.  Dropping A would change the
scheme: the whole point of the shifted construction is that the X-update
stays exact to the order the velocity update supports.

For drift kinds whose mollification depends on v only (every closed-form
catalog entry) the integrand is constant in s, so B = h*b_n(v) and
A = h^2/2 * b_n(v) exactly and the stepping backend skips the quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TextIO

import mpmath
import numpy as np

from . import _steppers
from ._steppers._numpy import march, record_buffers
from ._rng import ROLE_OU_RESIDUAL, normal_words, stream_key
from .drifts import (
    CLOSED_FORM_KINDS,
    MollifiedDrift,
    evaluate_arrays,
    mollify_evaluate_arrays,
)
from .errors import ConfigError, DomainError, check_int
from .kernel import KernelCovariance, PhaseState, as_phase_state
from .paths import _TILE_WORDS, AugmentedPath

__all__ = [
    "Trajectory",
    "integrate",
    "step_block",
    "exact_linear_solve",
    "exact_linear_block",
    "trajectory_to_csv",
    "ou_step_coefficients",
]

Initial = PhaseState | tuple


@dataclass(frozen=True)
class Trajectory:
    """Scheme states at grid times, with the provenance needed to reproduce them."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if x.ndim != 2 or v.shape != x.shape or t.shape != (x.shape[0],):
            raise ConfigError(
                f"inconsistent trajectory shapes: times {t.shape}, x {x.shape}, v {v.shape}"
            )
        for name, arr in (("times", t), ("x", x), ("v", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.times.size

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _legendre_rule(h: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, h] with the weights for B and for A.

    The B weights sum to h; the A weights are the B weights times (h - node).
    """
    y, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = (y + 1.0) * (0.5 * h), w * (0.5 * h)
    return nodes, weights, weights * (h - nodes)


def _shifted_drift_integrals(md: MollifiedDrift, x: np.ndarray, v: np.ndarray,
                             rule) -> tuple[np.ndarray, np.ndarray]:
    """B and A for every state of x, v shaped (..., d), by a _legendre_rule.

    B integrates s -> b_n(x + s v, v) over [0, h]; A integrates the same
    values against the weight (h - s), the order-exchanged form of the
    iterated integral.
    """
    nodes, w_b, w_a = rule
    shifted = x + nodes.reshape((-1,) + (1,) * v.ndim) * v
    vals = mollify_evaluate_arrays(md, shifted, np.broadcast_to(v, shifted.shape))
    return np.tensordot(w_b, vals, axes=1), np.tensordot(w_a, vals, axes=1)


def closed_form_code(md: MollifiedDrift) -> tuple[int, np.ndarray] | None:
    """Backend kind code and parameter vector, or None for quadrature kinds."""
    kind = md.base.kind
    if kind not in CLOSED_FORM_KINDS:
        return None
    if kind == "zero":
        return _steppers.KIND_ZERO, np.zeros(1)
    if kind == "constant":
        return _steppers.KIND_CONSTANT, evaluate_arrays(md.base, np.zeros(md.d), np.zeros(md.d))
    if kind == "linear_friction":
        return _steppers.KIND_LINEAR_FRICTION, np.array([md.base.gamma])
    return _steppers.KIND_SIGN_VELOCITY, np.array([md.erf_scale])


def step_block(
    md: MollifiedDrift,
    h: float,
    dW: np.ndarray,
    dI: np.ndarray,
    x: np.ndarray,
    v: np.ndarray,
    quad_order: int = 8,
    record_stride: int = 0,
) -> tuple[np.ndarray, np.ndarray] | None:
    """March a block of paths in place; the Monte Carlo hot loop.

    dW, dI have shape (steps, M, d) and x, v shape (M, d), where d is the
    drift's `md.d` (else DomainError naming d).  With
    record_stride = s > 0 the state after every s-th step is stored and the
    pair of arrays (steps//s, M, d) is returned.

    Closed-form drift kinds run in the selected stepping backend; kinds that
    need quadrature take the generic NumPy route with `quad_order`
    Gauss-Legendre nodes in the shift variable.  `quad_order` must be an
    integer >= 1 for every kind, so a bad value fails whichever route runs.
    """
    quad_order = check_int("quad_order", quad_order, 1)
    if dW.shape[2] != md.d:
        raise DomainError(f"d must be {md.d}, the dimension the drift was mollified for, "
                          f"got states of dimension {dW.shape[2]}")
    x_rec, v_rec = record_buffers(dW, record_stride)
    code = closed_form_code(md)
    if code is not None:
        kind, params = code
        _steppers.step_closed_form(
            dW, dI, x, v, h, kind, params, x_rec, v_rec, record_stride
        )
    else:
        rule = _legendre_rule(h, quad_order)

        def step(k):
            b, a = _shifted_drift_integrals(md, x, v, rule)
            np.add(x, h * v, out=x)
            np.add(x, a, out=x)
            np.add(x, dI[k], out=x)
            np.add(v, b, out=v)
            np.add(v, dW[k], out=v)

        march(step, dW.shape[0], x, v, x_rec, v_rec, record_stride)
    return (x_rec, v_rec) if record_stride else None


def resolve_initial(initial: Initial | None, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the initial (x0, v0) pair as length-d arrays."""
    if initial is None:
        return np.zeros(d), np.zeros(d)
    zz = as_phase_state(initial)
    if zz.d != d:
        raise ConfigError(f"initial state has dimension {zz.d}, grid has {d}")
    return zz.x.copy(), zz.v.copy()


def _run_path(path: AugmentedPath, initial: Initial | None, block, **provenance) -> Trajectory:
    """One path through a block stepper, as a Trajectory with the start prepended.

    `block(dW, dI, x, v)` marches a block of paths in place and returns the
    state recorded after every step; here the block holds this one path.
    """
    g = path.grid
    x0, v0 = resolve_initial(initial, g.d)
    x = x0[None, :].copy()
    v = v0[None, :].copy()
    rx, rv = block(np.ascontiguousarray(path.dW[:, None, :]),
                   np.ascontiguousarray(path.dI[:, None, :]), x, v)
    return Trajectory(
        times=g.times(),
        x=np.vstack([x0[None, :], rx[:, 0, :]]),
        v=np.vstack([v0[None, :], rv[:, 0, :]]),
        provenance={"n": g.n, "horizon": g.horizon, "seed": path.seed,
                    "stream_id": path.stream_id, **provenance},
    )


def integrate(md: MollifiedDrift, path: AugmentedPath, initial: Initial | None = None,
              quad_order: int = 8) -> Trajectory:
    """Run the scheme over one augmented path on its grid; states at every grid point.

    `initial` is a PhaseState or an (x, v) pair; None means the origin.  The
    taming exponent and the mollification level belong to `md`.
    """
    h = path.grid.h
    return _run_path(
        path, initial,
        lambda dw, di, x, v: step_block(md, h, dw, di, x, v, quad_order, record_stride=1),
        drift=md.base.drift_id, theta=md.theta, quad_order=quad_order, mollification_n=md.n,
    )


@functools.lru_cache(maxsize=256)
def ou_step_coefficients(gamma: float, h: float):
    """Exact one-step quantities for dX = V dt, dV = -gamma V dt + dW.

    Returns (a, c1, C, L, Q):
      a  = exp(-gamma h), the velocity decay;
      c1 = (1 - a)/gamma, the position load on V_k;
      C  = 2x2 matrix with E[(N_V, N_X) | dW, dI] = C @ (dW, dI);
      L  = Cholesky factor of the conditional residual covariance;
      Q  = unconditional covariance of (N_V, N_X), for validation.

    The entries suffer catastrophic cancellation for small gamma*h in double
    precision, so everything is evaluated with mpmath at 60 digits and cast
    once.  gamma = 0 degenerates to free flow: N = (dW, dI) exactly.
    """
    if gamma < 0:
        raise DomainError(f"friction must be >= 0, got {gamma}")
    if not h > 0:
        raise DomainError(f"step size must be positive, got {h}")
    if gamma == 0.0:
        return 1.0, h, np.eye(2), np.zeros((2, 2)), KernelCovariance(h).matrix
    with mpmath.workdps(60):
        g = mpmath.mpf(gamma)
        hh = mpmath.mpf(h)
        e = mpmath.e**(-g * hh)
        e2 = mpmath.e**(-2 * g * hh)
        c1 = (1 - e) / g
        qvv = (1 - e2) / (2 * g)
        qvx = (c1 - qvv) / g
        qxx = (hh - 2 * c1 + qvv) / g**2
        c3 = (1 - e * (1 + g * hh)) / g**2
        c2 = (hh - c1) / g
        c4 = (hh**2 / 2 - c3) / g
        kmat = mpmath.matrix([[c1, c3], [c2, c4]])
        det = hh**4 / 12
        sinv = mpmath.matrix([[hh**3 / 3, -hh**2 / 2], [-hh**2 / 2, hh]]) / det
        cmat = kmat * sinv
        q = mpmath.matrix([[qvv, qvx], [qvx, qxx]])
        r = q - cmat * kmat.T
        r00 = max(r[0, 0], mpmath.mpf(0))
        l00 = mpmath.sqrt(r00)
        l10 = r[1, 0] / l00 if l00 > 0 else mpmath.mpf(0)
        l11 = mpmath.sqrt(max(r[1, 1] - l10**2, mpmath.mpf(0)))
        a_f = float(e)
        c1_f = float(c1)
        c_f = np.array([[float(cmat[0, 0]), float(cmat[0, 1])],
                        [float(cmat[1, 0]), float(cmat[1, 1])]])
        l_f = np.array([[float(l00), 0.0], [float(l10), float(l11)]])
        q_f = np.array([[float(q[0, 0]), float(q[0, 1])],
                        [float(q[1, 0]), float(q[1, 1])]])
    return a_f, c1_f, c_f, l_f, q_f


def exact_linear_block(
    gamma: float,
    h: float,
    dW: np.ndarray,
    dI: np.ndarray,
    residuals,
    x: np.ndarray,
    v: np.ndarray,
    record_stride: int = 0,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact strong solution of the linear-friction system over a block of paths.

    Coupled to the augmented increments: per step the exact update noise is
    its conditional mean given (dW, dI) plus a residual built from unit
    normals.  Driven by the same path this is the coupled ground truth for
    strong-error runs.

    `residuals` yields (lo, hi, xi) tiles as `paths._normal_tiles` does: xi
    holds the residual normals of columns lo..hi-1, shaped (steps, hi - lo,
    d, 2), and the tiles cover columns 0..M-1 in order.  Each tile is used
    before the next is drawn, so the caller's tile buffer may be reused.
    """
    a, c1, cmat, lmat, _ = ou_step_coefficients(gamma, h)
    x_rec, v_rec = record_buffers(dW, record_stride)
    # The update noise does not depend on the state, so it is formed for all
    # steps before stepping, each element summed left to right:
    #   nv = (dW C00 + dI C01) + z0 L00,  nx = ((dW C10 + dI C11) + z0 L10) + z1 L11.
    # The dI terms go over contiguous step ranges of about a tile and the
    # residual terms tile by tile, so no temporary is block-sized.
    nv = np.multiply(dW, cmat[0, 0])
    nx = np.multiply(dW, cmat[1, 0])
    rows = max(1, _TILE_WORDS // max(dW[0].size, 1))
    for k in range(0, dW.shape[0], rows):
        rv, rx, di = nv[k:k + rows], nx[k:k + rows], dI[k:k + rows]
        np.add(rv, di * cmat[0, 1], out=rv)
        np.add(rx, di * cmat[1, 1], out=rx)
    done = 0
    for lo, hi, xi in residuals:
        if lo != done:
            raise ConfigError(f"residual tile starts at column {lo}, expected {done}")
        tv, tx = nv[:, lo:hi], nx[:, lo:hi]
        np.add(tv, xi[..., 0] * lmat[0, 0], out=tv)
        np.add(tx, xi[..., 0] * lmat[1, 0], out=tx)
        np.add(tx, xi[..., 1] * lmat[1, 1], out=tx)
        done = hi
    if done != dW.shape[1]:
        raise ConfigError(f"residual tiles cover {done} of {dW.shape[1]} columns")

    def step(k):
        np.add(x, c1 * v, out=x)
        np.add(x, nx[k], out=x)
        np.multiply(v, a, out=v)
        np.add(v, nv[k], out=v)

    march(step, dW.shape[0], x, v, x_rec, v_rec, record_stride)
    return (x_rec, v_rec) if record_stride else None


def exact_linear_solve(
    gamma: float,
    initial: Initial | None,
    path: AugmentedPath,
) -> Trajectory:
    """Exact trajectory of the linear-friction system on the path's grid.

    The conditional residual normals come from a dedicated stream derived
    from the path's seed and stream index, so the solution is a
    deterministic function of the path identity.
    """
    g = path.grid
    steps = g.num_steps
    residual = stream_key(ROLE_OU_RESIDUAL, path.stream_id & ((1 << 40) - 1))
    xi = normal_words(path.seed, residual, 2 * steps * g.d).reshape(steps, 1, g.d, 2)
    return _run_path(
        path, initial,
        lambda dw, di, x, v: exact_linear_block(gamma, g.h, dw, di, ((0, 1, xi),), x, v,
                                                record_stride=1),
        drift=f"exact_linear(gamma={gamma!r})",
    )


@functools.lru_cache(maxsize=8)
def _time_text(times: bytes) -> tuple[str, ...]:
    """repr of each float64 in `times`, the raw bytes of a time column.

    Every path of a simulate run shares its grid times, so their text is
    formed once.  The bytes key tells -0.0 from 0.0 and matches NaN.
    """
    return tuple(map(repr, np.frombuffer(times).tolist()))


def trajectory_to_csv(traj: Trajectory, fh: TextIO) -> None:
    """Write t, x_1..x_d, v_1..v_d rows with provenance comment lines.

    Each value is written as its float repr.  The body is one %-format of a
    flat tuple of the values, row after row; the time text is reused across
    trajectories on the same grid.  The text is the same, byte for byte, as
    joining the reprs of each row.
    """
    for key in sorted(traj.provenance):
        fh.write(f"# {key}={traj.provenance[key]}\n")
    d = traj.d
    cols = ["t"] + [f"x_{i+1}" for i in range(d)] + [f"v_{i+1}" for i in range(d)]
    fh.write(",".join(cols) + "\n")
    width = 1 + 2 * d
    items = [None] * (len(traj) * width)
    items[::width] = _time_text(traj.times.tobytes())
    for i in range(d):
        items[1 + i::width] = traj.x[:, i].tolist()
        items[1 + d + i::width] = traj.v[:, i].tolist()
    fh.write((("%s" + ",%r" * (2 * d) + "\n") * len(traj)) % tuple(items))
