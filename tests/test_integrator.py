import hashlib
import io
import math
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinetic_em import _steppers, paths
from kinetic_em._rng import ROLE_SIMULATE, stream_key
from kinetic_em._steppers import _numpy
from kinetic_em.drifts import (
    TabulatedField,
    constant_drift,
    linear_friction,
    mollify,
    mollify_evaluate_arrays,
    oscillatory_singular,
    sign_velocity,
    tabulated_drift,
    zero_drift,
)
from kinetic_em.errors import ConfigError, DomainError
from kinetic_em.integrator import (
    Trajectory,
    _legendre_rule,
    _shifted_drift_integrals,
    closed_form_code,
    exact_linear_block,
    exact_linear_solve,
    integrate,
    ou_step_coefficients,
    resolve_initial,
    step_block,
    trajectory_to_csv,
)
from kinetic_em.paths import (
    GridSpec,
    _normal_tiles,
    coarsen,
    prefix_integrals,
    sample_increment_block,
    sample_path,
)

REPO = Path(__file__).resolve().parents[1]


def test_substep_integrals_affine_analytic():
    # affine tabulated field: every stage (bilinear, Gauss-Hermite,
    # Gauss-Legendre) is exact, so the result must match the hand integral
    c0, c1, c2 = 0.4, 1.3, -0.8
    xs = np.linspace(-6, 6, 13)
    vs = np.linspace(-6, 6, 13)
    vals = c0 + c1 * xs[:, None] + c2 * vs[None, :]
    md = mollify(tabulated_drift(TabulatedField(xs, vs, vals)), 16, 0.5)
    x, v, h = 0.3, 0.9, 1.0 / 16
    b, a = _shifted_drift_integrals(md, np.array([[x]]), np.array([[v]]), _legendre_rule(h, 8))
    base = c0 + c1 * x + c2 * v
    b_expect = h * base + c1 * v * h**2 / 2
    a_expect = h**2 / 2 * base + c1 * v * h**3 / 6
    assert b[0, 0] == pytest.approx(b_expect, abs=1e-12)
    assert a[0, 0] == pytest.approx(a_expect, abs=1e-12)


def test_substep_integrals_dense_oracle():
    md = mollify(oscillatory_singular(), 4, 0.5)
    x0, v0, h = np.array([0.3]), np.array([0.9]), 1.0 / 16
    s = np.linspace(0.0, h, 20001)
    vals = mollify_evaluate_arrays(
        md, x0[None, :] + s[:, None] * v0[None, :],
        np.broadcast_to(v0, (s.size, 1)).copy(),
    )[:, 0]
    b, a = _shifted_drift_integrals(md, x0[None, :], v0[None, :], _legendre_rule(h, 8))
    assert abs(b[0, 0] - np.trapezoid(vals, s)) <= 1e-4
    assert abs(a[0, 0] - np.trapezoid((h - s) * vals, s)) <= 1e-4


def test_substep_integrals_frozen_velocity_kinds_are_exact():
    # drifts that depend on v only are constant along the shifted sub-step
    md = mollify(sign_velocity(), 16, 0.5)
    h = 1.0 / 32
    b, a = _shifted_drift_integrals(md, np.zeros((1, 1)), np.full((1, 1), 0.4),
                                    _legendre_rule(h, 8))
    bval = mollify_evaluate_arrays(md, np.zeros((1, 1)), np.full((1, 1), 0.4))[0, 0]
    assert b[0, 0] == pytest.approx(h * bval, rel=1e-14)
    assert a[0, 0] == pytest.approx(h**2 / 2 * bval, rel=1e-14)


@pytest.mark.parametrize("drift", [zero_drift(), sign_velocity(), oscillatory_singular()],
                         ids=lambda drift: drift.kind)
def test_quad_order_is_checked_for_every_drift_kind(drift):
    # closed-form kinds never run the quadrature, yet a bad order still fails
    md = mollify(drift, 4, 0.5)
    g = GridSpec(n=4, horizon=1.0, d=1)
    p = sample_path(g, 0, 0)
    for bad in (0, 2.5, True, "8"):
        with pytest.raises(ConfigError, match="quad_order"):
            step_block(md, g.h, p.dW[:, None, :], p.dI[:, None, :],
                       np.zeros((1, 1)), np.zeros((1, 1)), bad)
        with pytest.raises(ConfigError, match="quad_order"):
            integrate(md, p, quad_order=bad)
    assert integrate(md, p, quad_order=np.int64(2)).provenance["quad_order"] == 2


def test_closed_form_code_mapping():
    assert closed_form_code(mollify(zero_drift(), 4, 0.5))[0] == _steppers.KIND_ZERO
    kind, params = closed_form_code(mollify(constant_drift(2.0), 4, 0.5, d=3))
    assert kind == _steppers.KIND_CONSTANT
    assert np.array_equal(params, [2.0, 2.0, 2.0])
    kind, params = closed_form_code(mollify(linear_friction(0.25), 4, 0.5))
    assert kind == _steppers.KIND_LINEAR_FRICTION and params[0] == 0.25
    kind, params = closed_form_code(mollify(sign_velocity(), 16, 0.5))
    assert kind == _steppers.KIND_SIGN_VELOCITY
    assert params[0] == pytest.approx(16.0**0.5 / math.sqrt(2.0))
    assert closed_form_code(mollify(oscillatory_singular(), 4, 0.5)) is None


def test_state_of_another_dimension_than_the_drift_fails_before_any_step():
    md = mollify(constant_drift([1.0, 2.0]), 4, 0.5, d=2)
    g = GridSpec(n=4, d=3)
    p = sample_path(g, 0, 0)
    with pytest.raises(DomainError, match="^d must be 2"):
        step_block(md, g.h, p.dW[:, None, :], p.dI[:, None, :], np.zeros((1, 3)), np.zeros((1, 3)))
    # the d = 1 table used to be applied to each component of a d = 2 path
    xs = np.linspace(-10.0, 10.0, 21)
    md = mollify(tabulated_drift(TabulatedField(xs, xs, np.add.outer(xs, xs))), 8, 0.5)
    with pytest.raises(DomainError, match="^d must be 1"):
        integrate(md, sample_path(GridSpec(n=8, d=2), 1, 0))


def _build_kernel(tmp_path):
    """Compile _kernel.c through setup.py into tmp_path; the library's path."""
    cc = sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc})")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=REPO, check=True, capture_output=True, text=True,
    )
    built = sorted((tmp_path / "lib").rglob("_kernel*"))
    assert len(built) == 1, proc.stderr
    return built[0]


def _closed_form_cases(d):
    """(kind, params) for every closed-form kind at dimension d."""
    return [
        (_steppers.KIND_ZERO, np.zeros(1)),
        (_steppers.KIND_CONSTANT, np.linspace(0.5, -0.25, d)),
        (_steppers.KIND_LINEAR_FRICTION, np.array([1.0])),
        (_steppers.KIND_SIGN_VELOCITY, np.array([4.0])),
    ]


def _step_outputs(fn, dw, di, h, kind, params, stride):
    """End state, plus the recorded states when stride > 0, from one stepping call."""
    m, d = dw.shape[1:]
    x = np.zeros((m, d))
    v = np.linspace(-1.5, 1.5, m * d).reshape(m, d)
    x_rec, v_rec = _numpy.record_buffers(dw, stride)
    fn(dw, di, x, v, h, kind, params, x_rec, v_rec, stride)
    return [x, v] + ([x_rec, v_rec] if stride else [])


def test_backend_parity(tmp_path):
    # M=1 takes the NumPy backend's scalar route, M=16 its vectorized one
    compiled = _steppers.load_kernel(_build_kernel(tmp_path))
    assert compiled is not None, "scipy exports no C erf"
    for m in (1, 16):
        for d in (1, 2, 3):
            g = GridSpec(n=32, horizon=1.0, d=d)
            dw, di = sample_increment_block(g, 7, range(m))
            for kind, params in _closed_form_cases(d):
                for stride in (0, 4):
                    outs = [_step_outputs(fn, dw, di, g.h, kind, params, stride)
                            for fn in (_numpy.step_closed_form, compiled)]
                    for a, b in zip(*outs):
                        assert np.array_equal(a, b), (m, d, kind, stride)


def test_numpy_scalar_and_vectorized_routes_agree(monkeypatch):
    for m, d in ((1, 1), (1, 3), (2, 2), (4, 1)):
        g = GridSpec(n=32, horizon=1.0, d=d)
        dw, di = sample_increment_block(g, 11, range(m))
        for kind, params in _closed_form_cases(d):
            for stride in (0, 1, 4):
                outs = []
                for limit in (m * d, m * d - 1):  # scalar route, then vectorized
                    monkeypatch.setattr(_numpy, "SCALAR_ELEMENTS", limit)
                    outs.append(_step_outputs(_numpy.step_closed_form, dw, di, g.h,
                                              kind, params, stride))
                for a, b in zip(*outs):
                    assert np.array_equal(a, b), (m, d, kind, stride)


def _sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


# Digests of end and recorded states over strides 0, 1 and 4, taken from a
# vectorized route and an exact OU loop that allocated new states every step.
_STEP_GOLDEN = {
    _steppers.KIND_ZERO: "67fb5d713f2421d34cd85d42751d5ef47bdaa3b65e53e1537446b185ebd8fab2",
    _steppers.KIND_CONSTANT: "a45211f604bdc36683b4d0ec3a9229d2c4bef69075744174fe27856774d0d240",
    _steppers.KIND_LINEAR_FRICTION:
        "9a5edd1f682d9b33fd2374f43fb9227b87b23cc1ae75776d8af7f533110a2886",
    _steppers.KIND_SIGN_VELOCITY:
        "57c126d3e004981525232475c649c20c20eb4eb348a90bb87684f8385fb6e804",
}
_EXACT_LINEAR_GOLDEN = "bc58687167f861b42ff8a9ed8b3cb7518808fb44b76808d010cf7446e8496fa0"


def test_vectorized_route_golden_digests():
    g = GridSpec(n=32, d=3)
    dw, di = sample_increment_block(g, 20260814, range(8))
    assert 8 * g.d > _numpy.SCALAR_ELEMENTS
    for kind, params in _closed_form_cases(g.d):
        outs = []
        for stride in (0, 1, 4):
            outs += _step_outputs(_numpy.step_closed_form, dw, di, g.h, kind, params, stride)
        assert _sha256(outs) == _STEP_GOLDEN[kind], kind


def test_exact_linear_block_golden_digest(monkeypatch):
    g = GridSpec(n=32, d=2)
    dw, di = sample_increment_block(g, 20260814, range(8))
    # 128 words per stream: the default tiles hold all 8 streams, 128 gives
    # one stream per tile and 384 tiles of 3, 3 and 2 streams
    for tile_words in (paths._TILE_WORDS, 128, 384):
        monkeypatch.setattr(paths, "_TILE_WORDS", tile_words)
        outs = []
        for stride in (0, 1, 4):
            x = np.zeros((8, 2))
            v = np.linspace(-1.5, 1.5, 16).reshape(8, 2)
            tiles = _normal_tiles(20260814, range(8), g.num_steps, g.d)
            rec = exact_linear_block(1.0, g.h, dw, di, tiles, x, v, record_stride=stride)
            outs += [x, v] + (list(rec) if stride else [])
        assert _sha256(outs) == _EXACT_LINEAR_GOLDEN, tile_words


def test_exact_linear_block_holds_noise_and_records_only():
    # 8 MB per fine array: beside nv, nx and the records the peak holds one
    # tile of residual normals and tile-sized temporaries, not the
    # (steps, M, d, 2) residual block or a block-sized scratch
    g = GridSpec(n=4096, d=1)
    rng = np.random.default_rng(6)
    dw, di = rng.normal(size=(2, g.num_steps, 256, 1))
    for stride in (0, 8):
        x = np.zeros((256, 1))
        v = np.zeros((256, 1))
        records = 2 * dw.nbytes // stride if stride else 0
        tiles = _normal_tiles(7, range(256), g.num_steps, g.d)
        tracemalloc.start()
        try:
            exact_linear_block(1.0, g.h, dw, di, tiles, x, v, record_stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dw.nbytes + records + (1 << 20) < 3 * dw.nbytes, (stride, peak)


def test_exact_linear_block_rejects_tiles_that_miss_columns():
    g = GridSpec(n=8, d=1)
    dw, di = sample_increment_block(g, 1, range(3))
    xi = np.zeros((g.num_steps, 3, 1, 2))
    for tiles in (((0, 2, xi[:, :2]),), ((1, 3, xi[:, 1:]),)):
        with pytest.raises(ConfigError):
            exact_linear_block(1.0, g.h, dw, di, tiles, np.zeros((3, 1)), np.zeros((3, 1)))


def test_vectorized_route_keeps_signed_zeros(monkeypatch):
    # -0.0 + h*0.0 is +0.0, so an update that adds a zero drift term flips it
    g = GridSpec(n=16, d=3)
    m = 4
    dw, di = sample_increment_block(g, 5, range(m))
    dw[:, 0, 0] = -0.0
    di[:, 0, 0] = -0.0
    dw[::3, 2, 1] = -0.0
    for kind, params in _closed_form_cases(g.d):
        for stride in (0, 4):
            outs = []
            for limit in (m * g.d, m * g.d - 1):  # scalar route, then vectorized
                monkeypatch.setattr(_numpy, "SCALAR_ELEMENTS", limit)
                x = np.zeros((m, g.d))
                x[0, 0] = -0.0
                v = np.linspace(-1.5, 1.5, m * g.d).reshape(m, g.d)
                v[0, 0] = -0.0
                x_rec, v_rec = _numpy.record_buffers(dw, stride)
                _numpy.step_closed_form(dw, di, x, v, g.h, kind, params, x_rec, v_rec, stride)
                outs.append([a.tobytes() for a in [x, v] + ([x_rec, v_rec] if stride else [])])
            assert outs[0] == outs[1], (kind, stride)
    assert np.signbit(v[0, 0])


def _guard_case(**bad):
    """Valid step_closed_form arguments for 4 paths at d=2, with `bad` swapped in."""
    args = dict(
        dW=np.zeros((8, 4, 2)), dI=np.zeros((8, 4, 2)), x=np.zeros((4, 2)), v=np.zeros((4, 2)),
        h=0.125, kind=_steppers.KIND_LINEAR_FRICTION, params=np.ones(1),
        x_rec=np.zeros((2, 4, 2)), v_rec=np.zeros((2, 4, 2)), stride=4,
    )
    args.update(bad)
    return args


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name, args", [
    pytest.param("dW", _guard_case(dW=np.zeros((8, 4))), id="dW-ndim"),
    pytest.param("dI", _guard_case(dI=np.zeros((8, 4, 3))), id="dI-shape"),
    pytest.param("x", _guard_case(x=np.zeros((5, 2))), id="x-shape"),
    pytest.param("v", _guard_case(v=np.zeros((4, 1))), id="v-shape"),
    pytest.param("dW", _guard_case(dW=np.zeros((8, 4, 2), dtype=np.float32)), id="dW-dtype"),
    pytest.param("dI", _guard_case(dI=np.zeros((8, 4, 4))[:, :, ::2]), id="dI-strided"),
    pytest.param("x", _guard_case(x=np.zeros((2, 4)).T), id="x-fortran"),
    pytest.param("v", _guard_case(v=_read_only(np.zeros((4, 2)))), id="v-read-only"),
    pytest.param("kind", _guard_case(kind=4), id="kind-range"),
    pytest.param("params", _guard_case(params=np.ones(2)), id="params-length"),
    pytest.param("params", _guard_case(kind=_steppers.KIND_CONSTANT, params=np.ones(1)),
                 id="params-constant-length"),
    pytest.param("params", _guard_case(params=[1.0]), id="params-list"),
    pytest.param("x_rec", _guard_case(x_rec=np.zeros((4, 4, 2))), id="x_rec-shape"),
    pytest.param("v_rec", _guard_case(v_rec=None), id="v_rec-missing"),
])
def test_step_closed_form_rejects_bad_arguments(name, args):
    with pytest.raises(DomainError, match=rf"^{name} "):
        _steppers.step_closed_form(**args)


def test_free_flow_reproduces_prefix_integrals():
    for n, d in ((4, 1), (16, 2)):
        g = GridSpec(n=n, horizon=1.0, d=d)
        p = sample_path(g, 3, 5)
        traj = integrate(mollify(zero_drift(), n, 0.5, d=d), p)
        w, i = prefix_integrals(p.dW, p.dI, g.h)
        t = g.times()[:, None]
        assert np.max(np.abs(traj.v - w)) <= 1e-11
        assert np.max(np.abs(traj.x - i)) <= 1e-11
        # nonzero start just translates the flow
        init = ([1.0] * d, [-0.5] * d)
        traj2 = integrate(mollify(zero_drift(), n, 0.5, d=d), p, init)
        assert np.max(np.abs(traj2.v - (w - 0.5))) <= 1e-11
        assert np.max(np.abs(traj2.x - (i + 1.0 - 0.5 * t))) <= 1e-11


def test_constant_drift_closed_form():
    g = GridSpec(n=16, horizon=1.0, d=1)
    p = sample_path(g, 9, 2)
    c = 0.75
    traj = integrate(mollify(constant_drift(c), 16, 0.5), p, ([0.2], [-0.4]))
    w, i = prefix_integrals(p.dW, p.dI, g.h)
    t = g.times()[:, None]
    assert np.max(np.abs(traj.v - (-0.4 + c * t + w))) <= 1e-10
    assert np.max(np.abs(traj.x - (0.2 - 0.4 * t + c * t**2 / 2 + i))) <= 1e-10


def test_exact_linear_zero_friction_is_free_flow():
    g = GridSpec(n=32, horizon=1.0, d=1)
    p = sample_path(g, 5, 1)
    exact = exact_linear_solve(0.0, None, p)
    w, i = prefix_integrals(p.dW, p.dI, g.h)
    assert np.max(np.abs(exact.v - w)) <= 1e-12
    assert np.max(np.abs(exact.x - i)) <= 1e-12


def test_exact_linear_velocity_variance():
    gamma, m = 1.0, 40000
    g = GridSpec(n=32, horizon=1.0, d=1)
    dw, di = sample_increment_block(g, 21, range(m))
    zeta = np.random.default_rng(4).standard_normal((g.num_steps, m, 1, 2))
    x = np.zeros((m, 1))
    v = np.zeros((m, 1))
    exact_linear_block(gamma, g.h, dw, di, ((0, m, zeta),), x, v)
    target = (1.0 - math.exp(-2.0 * gamma)) / (2.0 * gamma)
    tol = 4.0 * target * math.sqrt(2.0 / m)
    assert abs(v[:, 0].var() - target) <= tol


def test_ou_step_coefficients_identity():
    h = 1.0 / 64
    s = np.array([[h, h**2 / 2], [h**2 / 2, h**3 / 3]])
    for gamma in (1e-8, 1e-3, 1.0, 10.0):
        a, c1, cmat, lmat, q = ou_step_coefficients(gamma, h)
        assert a == pytest.approx(math.exp(-gamma * h), rel=1e-15)
        assert c1 == pytest.approx(-math.expm1(-gamma * h) / gamma, rel=1e-13)
        recon = cmat @ s @ cmat.T + lmat @ lmat.T
        # the identity holds exactly upstream; only the final float64
        # rounding of the coefficients survives
        assert np.max(np.abs(recon - q)) <= 4 * np.finfo(float).eps * np.max(q)
    a, c1, cmat, lmat, q = ou_step_coefficients(0.0, h)
    assert a == 1.0 and c1 == h
    assert np.array_equal(cmat, np.eye(2)) and np.all(lmat == 0.0)
    assert np.array_equal(q, s)
    with pytest.raises(DomainError):
        ou_step_coefficients(-1.0, h)
    with pytest.raises(DomainError):
        ou_step_coefficients(1.0, 0.0)


def test_step_block_matches_integrate():
    g = GridSpec(n=16, horizon=1.0, d=1)
    p = sample_path(g, 13, 4)
    md = mollify(sign_velocity(), 16, 0.5)
    traj = integrate(md, p, ([0.0], [1.0]))
    x = np.zeros((1, 1))
    v = np.ones((1, 1))
    rec = step_block(md, g.h, p.dW[:, None, :], p.dI[:, None, :], x, v, record_stride=1)
    assert np.array_equal(rec[0][:, 0, :], traj.x[1:])
    assert np.array_equal(rec[1][:, 0, :], traj.v[1:])
    with pytest.raises(ConfigError):
        step_block(md, g.h, p.dW[:, None, :], p.dI[:, None, :], x, v, record_stride=3)


def test_substep_integrals_match_one_step_block_step():
    # one quadrature routine: a zero-noise step_block step is x + h v + A, v + B
    md = mollify(oscillatory_singular(), 16, 0.3, d=2)
    h = 1.0 / 16
    x = np.array([[0.3, -1.1]])
    v = np.array([[0.9, 0.2]])
    b, a = _shifted_drift_integrals(md, x, v, _legendre_rule(h, 8))
    zero = np.zeros((1, 1, 2))
    xs, vs = x.copy(), v.copy()
    step_block(md, h, zero, zero, xs, vs)
    assert np.array_equal(xs[0], (x[0] + h * v[0]) + a[0])
    assert np.array_equal(vs[0], v[0] + b[0])


@pytest.mark.parametrize("stepper", ["closed_form", "quadrature", "exact_linear"])
def test_record_stride_keeps_every_stride_th_state(stepper):
    g = GridSpec(n=12, horizon=1.0, d=2)
    dw, di = sample_increment_block(g, 3, range(3))
    zeta = np.random.default_rng(8).standard_normal((g.num_steps, 3, 2, 2))
    x0 = np.array([[0.1, -0.2], [0.5, 0.0], [-1.0, 0.3]])
    v0 = np.array([[1.0, -0.5], [0.0, 0.2], [-0.7, 0.4]])

    def run(stride):
        x, v = x0.copy(), v0.copy()
        if stepper == "exact_linear":
            return exact_linear_block(1.0, g.h, dw, di, ((0, 3, zeta),), x, v,
                                      record_stride=stride)
        drift = sign_velocity() if stepper == "closed_form" else oscillatory_singular()
        md = mollify(drift, 12, 0.3, d=2)
        return step_block(md, g.h, dw, di, x, v, record_stride=stride)

    every_x, every_v = run(1)
    for stride in (2, 3, 4, 12):
        rx, rv = run(stride)
        assert np.array_equal(rx, every_x[stride - 1::stride])
        assert np.array_equal(rv, every_v[stride - 1::stride])
    with pytest.raises(ConfigError):
        run(5)


def test_trajectory_csv_roundtrip():
    g = GridSpec(n=8, horizon=1.0, d=2)
    p = sample_path(g, 1, 1)
    traj = integrate(mollify(zero_drift(), 8, 0.5, d=2), p)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,x_1,x_2,v_1,v_2"
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:3], traj.x)
    assert np.array_equal(data[:, 3:5], traj.v)


def _csv_text(traj):
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    return buf.getvalue()


def _csv_oracle(traj):
    # the writer's former body: one repr per value and a join per row
    head = "".join(f"# {key}={traj.provenance[key]}\n" for key in sorted(traj.provenance))
    cols = (["t"] + [f"x_{i+1}" for i in range(traj.d)]
            + [f"v_{i+1}" for i in range(traj.d)])
    rows = np.column_stack([traj.times, traj.x, traj.v]).tolist()
    return head + ",".join(cols) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)


def _simulate_sign_trajectory(n=256, horizon=1.0, sample_at=1024):
    # one path of `simulate` with drift = sign_velocity and initial_v = 1
    fine = sample_path(GridSpec(n=sample_at, horizon=horizon, d=1), 20260814,
                       stream_key(ROLE_SIMULATE, 0))
    md = mollify(sign_velocity(), n, 0.5, d=1)
    return integrate(md, coarsen(fine, sample_at // n), ([0.0], [1.0]))


_SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16, 0.1]

# sha256 of the CSV text, taken from the per-row repr/join writer
_CSV_GOLDEN = {
    "simulate-sign": "e655bfc6293c94860cc7751f773ecb7e230e3aa3d06fdb39e35d59ca61daf027",
    "special": "ce8ce46d22fe0d559da28bc79febd079a76af59fdacc03f804e45e7dd3373810",
}


def test_trajectory_csv_golden_digests():
    texts = {"simulate-sign": _csv_text(_simulate_sign_trajectory())}
    special = np.array(_SPECIAL)
    texts["special"] = _csv_text(Trajectory(
        times=np.array([0.0, -0.0, 0.1, 1e-05, 1e16, 0.25, 0.5, 1.0]),
        x=np.column_stack([special, special[::-1]]),
        v=np.column_stack([special[::-1] * -1.0, special]),
        provenance={"drift": "hand-built", "n": 8},
    ))
    digests = {k: hashlib.sha256(t.encode("ascii")).hexdigest() for k, t in texts.items()}
    assert digests == _CSV_GOLDEN


def test_trajectory_csv_time_column_is_keyed_by_value():
    # grids of different lengths, a repeated grid and one with the same
    # length but other times: each text must match the per-row oracle
    for n, horizon in ((8, 1.0), (16, 1.0), (8, 1.0), (8, 2.0)):
        traj = _simulate_sign_trajectory(n, horizon, sample_at=4 * n)
        assert _csv_text(traj) == _csv_oracle(traj), (n, horizon)


def test_resolve_initial():
    x, v = resolve_initial(None, 3)
    assert np.all(x == 0.0) and np.all(v == 0.0) and x.shape == (3,)
    x, v = resolve_initial(([1.0], [2.0]), 1)
    assert x[0] == 1.0 and v[0] == 2.0
    with pytest.raises(ConfigError):
        resolve_initial(([1.0], [2.0]), 2)
    with pytest.raises(DomainError, match="5"):
        resolve_initial(5, 1)
    with pytest.raises(DomainError, match=r"\(1\.0, 2\.0, 3\.0\)"):
        resolve_initial((1.0, 2.0, 3.0), 1)
    with pytest.raises(DomainError, match="x must be numeric"):
        resolve_initial(("a", "b"), 1)
    with pytest.raises(DomainError, match="v must be numeric"):
        resolve_initial((0.0, object()), 1)


def test_integrate_records_decoupled_mollification():
    g = GridSpec(n=8, horizon=1.0, d=1)
    p = sample_path(g, 0, 0)
    # the mollification level is an independent knob; both are recorded
    md = mollify(sign_velocity(), 16, 0.5)
    traj = integrate(md, p)
    assert traj.provenance["n"] == 8
    assert traj.provenance["mollification_n"] == 16
