import hashlib
import io
import math

import numpy as np
import pytest

from kinetic_em import drifts
from kinetic_em.drifts import (
    _check_int,
    DriftSpec,
    MollifiedDrift,
    TabulatedField,
    admissibility_bound,
    constant_drift,
    drift_from_name,
    evaluate_arrays,
    linear_friction,
    load_tabulated,
    mollify,
    mollify_evaluate_arrays,
    oscillatory_singular,
    save_tabulated,
    sign_velocity,
    tabulated_drift,
    zero_drift,
)
from kinetic_em.errors import ConfigError, DomainError, ExtrapolationError


def _sup_on_probes(drift, d=1):
    # max |b| over a 201 x 201 (x, v) grid on [-10, 10]^2, every component
    x, v = np.meshgrid(np.linspace(-10, 10, 201), np.linspace(-10, 10, 201))
    x = np.repeat(x.reshape(-1, 1), d, axis=1)
    v = np.repeat(v.reshape(-1, 1), d, axis=1)
    return float(np.max(np.abs(evaluate_arrays(drift, x, v))))


def test_catalog_ids_and_sup_norms():
    assert zero_drift().drift_id == "zero"
    assert _sup_on_probes(zero_drift()) == 0.0
    c = constant_drift([1.0, -2.5])
    assert _sup_on_probes(c, d=2) == 2.5
    assert "constant" in c.drift_id
    assert _sup_on_probes(sign_velocity()) == 1.0
    assert _sup_on_probes(oscillatory_singular()) == 1.0
    # linear friction is unbounded: |b| grows with |v|
    assert _sup_on_probes(linear_friction(2.0)) == 20.0
    assert linear_friction(2.0).drift_id == "linear_friction(gamma=2.0)"


def test_evaluate_pointwise_values():
    s = sign_velocity()
    assert evaluate_arrays(s, [0.0], [-2.0])[0] == -1.0
    assert evaluate_arrays(s, [0.0], [3.0])[0] == 1.0
    assert evaluate_arrays(s, [0.0], [0.0])[0] == 0.0
    lf = linear_friction(0.5)
    assert evaluate_arrays(lf, [1.0], [4.0])[0] == -2.0
    osc = oscillatory_singular(kappa=3.0, beta=0.25)
    # sin(3 * 0.5) > 0, so the sign factor is +1
    assert evaluate_arrays(osc, [0.5], [0.7])[0] == pytest.approx(0.7**0.25, rel=1e-14)
    vals = evaluate_arrays(osc, np.zeros((50, 1)), np.linspace(-3, 3, 50)[:, None])
    assert np.all(np.abs(vals) <= 1.0)


def test_constant_broadcasts_over_dimensions():
    c = constant_drift(1.5)
    out = evaluate_arrays(c, np.zeros((4, 3)), np.zeros((4, 3)))
    assert out.shape == (4, 3)
    assert np.all(out == 1.5)


def _normal_cdf_split(t, nodes=200, cutoff=12.0):
    # integral of the standard normal density on each side of t, by
    # Gauss-Legendre on the two smooth pieces
    y, w = np.polynomial.legendre.leggauss(nodes)

    def piece(a, b):
        z = 0.5 * (b - a) * y + 0.5 * (a + b)
        return 0.5 * (b - a) * np.sum(w * np.exp(-0.5 * z * z)) / math.sqrt(2 * math.pi)

    return piece(-cutoff, t), piece(t, cutoff)


def test_mollified_sign_matches_quadrature_oracle():
    # closed form route vs an independent numeric convolution of sign(v)
    md = mollify(sign_velocity(), 16, 0.5)
    sigma_v = md.sigma_v
    for v in (-0.9, -0.3, -0.01, 0.0, 0.02, 0.4, 1.0):
        lo, hi = _normal_cdf_split(v / sigma_v)
        oracle = lo - hi
        val = float(mollify_evaluate_arrays(md, [0.0], [v])[0])
        assert abs(val - oracle) <= 1e-10


def test_mollified_sign_limits():
    md = mollify(sign_velocity(), 64, 0.5)
    assert mollify_evaluate_arrays(md, [0.0], [0.0])[0] == 0.0
    assert mollify_evaluate_arrays(md, [0.0], [5.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert mollify_evaluate_arrays(md, [0.0], [-5.0])[0] == pytest.approx(-1.0, abs=1e-12)


def test_mollification_is_exact_for_linear_and_constant():
    md = mollify(linear_friction(0.7), 8, 0.5)
    v = np.linspace(-2, 2, 11)[:, None]
    assert np.array_equal(mollify_evaluate_arrays(md, 0 * v, v), -0.7 * v)
    mc = mollify(constant_drift([0.3, -1.0]), 8, 0.5, d=2)
    out = mollify_evaluate_arrays(mc, np.zeros((5, 2)), np.ones((5, 2)))
    assert np.array_equal(out, np.tile([0.3, -1.0], (5, 1)))
    mz = mollify(zero_drift(), 8, 0.5)
    assert np.all(mollify_evaluate_arrays(mz, np.zeros((3, 1)), np.ones((3, 1))) == 0.0)


def test_tabulated_affine_quadrature_route_matches_closed_form():
    # a tabulated copy of -0.7 v goes through the generic quadrature path;
    # bilinear interpolation and Gauss-Hermite are both exact on affine fields
    xs = np.linspace(-6, 6, 25)
    vs = np.linspace(-6, 6, 25)
    vals = np.broadcast_to(-0.7 * vs, (25, 25))
    md_tab = mollify(tabulated_drift(TabulatedField(xs, vs, vals)), 16, 0.5)
    md_lin = mollify(linear_friction(0.7), 16, 0.5)
    pts = np.linspace(-1, 1, 9)[:, None]
    a = mollify_evaluate_arrays(md_tab, pts, pts[::-1])
    b = mollify_evaluate_arrays(md_lin, pts, pts[::-1])
    assert np.max(np.abs(a - b)) <= 1e-12


def test_quadrature_route_ignores_velocity_layout():
    # a zero-stride velocity view, as the shifted sub-step quadrature passes
    # it, must give a C-ordered result that sums bit for bit like a copy
    md = mollify(oscillatory_singular(), 16, 0.02)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 100, 1))
    v = np.broadcast_to(rng.normal(size=(100, 1)), x.shape)
    w = rng.uniform(size=8)
    viewed = mollify_evaluate_arrays(md, x, v)
    copied = mollify_evaluate_arrays(md, x, v.copy())
    assert viewed.flags.c_contiguous
    assert np.array_equal(np.tensordot(w, viewed, axes=1), np.tensordot(w, copied, axes=1))


def _unblocked_quadrature(md, x, v, points):
    # the whole (..., P, P) product and grid sum in one go
    ys, ws = np.polynomial.hermite.hermgauss(points)
    ys, ws = ys * math.sqrt(2.0), ws / math.sqrt(math.pi)
    yx = ys[:, None] * md.sigma_x
    yv = ys[None, :] * md.sigma_v
    wgrid = ws[:, None] * ws[None, :]
    out = np.empty(v.shape)
    for i in range(v.shape[-1]):
        xi = x[..., i, None, None] - yx[None, ...]
        vi = v[..., i, None, None] - yv[None, ...]
        vals = evaluate_arrays(md.base, xi[..., None], vi[..., None])[..., 0]
        out[..., i] = np.sum(vals * wgrid, axis=(-2, -1))
    return out


@pytest.mark.parametrize("states", [1, 5, 8, 1000])
def test_blocked_quadrature_matches_unblocked_oracle(monkeypatch, states):
    # 8 x 37 states: the block divides neither the node count nor the paths
    monkeypatch.setattr(drifts, "_BLOCK_POINTS", states * 64 * 64)
    rng = np.random.default_rng(23)
    table = TabulatedField(np.linspace(-6, 6, 25), np.linspace(-6, 6, 25),
                           rng.normal(size=(25, 25)))
    cases = [mollify(oscillatory_singular(), 16, 0.02, d=d) for d in (1, 2, 3)]
    cases.append(mollify(tabulated_drift(table), 16, 0.5))
    for d, md in zip((1, 2, 3, 1), cases):
        x = 0.5 * rng.normal(size=(8, 37, d))
        v = np.broadcast_to(0.5 * rng.normal(size=(37, d)), x.shape)
        got = mollify_evaluate_arrays(md, x, v)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.array_equal(got, _unblocked_quadrature(md, x, v, 64))


def test_separable_route_keeps_zero_offsets_and_nan():
    # The outer-product route writes f(x) g(v) through einsum, which forms
    # f*g + 0: where g(0) = +0 meets f = -1 it stores +0.0, not -0.0, and
    # f(0) = sign(sin 0) = +0 zeroes a whole grid row.  Neither may move a bit.
    md = mollify(oscillatory_singular(), 16, 0.02, d=2)
    ys, _ = drifts._hermite_rule(md.quad_points)
    rng = np.random.default_rng(5)
    x = 0.5 * rng.normal(size=(12, 2))
    v = 0.5 * rng.normal(size=(12, 2))
    v[:6, 0] = ys[:6] * md.sigma_v  # velocity offset k of state k is exactly 0
    x[3:9, 0] = ys[40:46] * md.sigma_x  # position offsets exactly 0, some with v's
    x[9:, 1] = ys[60:63] * md.sigma_x
    assert np.count_nonzero(v[:, :1] - ys * md.sigma_v == 0) == 6
    assert np.count_nonzero(x[:, :, None] - ys * md.sigma_x == 0) == 9
    got = mollify_evaluate_arrays(md, x, v)
    assert got.tobytes() == _unblocked_quadrature(md, x, v, 64).tobytes()
    # a non-finite position stays NaN in its own component and nowhere else
    x[0, 0], x[1, 1] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        got = mollify_evaluate_arrays(md, x, v)
    assert np.isnan(got[0, 0]) and np.isnan(got[1, 1])
    assert np.count_nonzero(np.isnan(got)) == 2


def test_blocked_quadrature_keeps_extrapolation_error():
    table = TabulatedField(np.linspace(-1, 1, 5), np.linspace(-6, 6, 5), np.zeros((5, 5)))
    md = mollify(tabulated_drift(table), 16, 0.5)
    x = np.zeros((40, 1))
    assert np.array_equal(mollify_evaluate_arrays(md, x, x), x)
    x[33] = 0.99  # the offsets of this state, in the fifth block, leave the grid
    with pytest.raises(ExtrapolationError):
        mollify_evaluate_arrays(md, x, np.zeros((40, 1)))


# sha256 of mollify_evaluate_arrays at strong-osc's step shape (8 shift nodes
# x 100 states, velocity a zero-stride view): oscillatory_singular at d = 1, 2, 3
# with strong-osc's kappa, beta and reference mollifier, then one tabulated field.
# Recorded with numpy 2.4 on x86-64; the bits rest on numpy's sin and power and
# on the Gauss-Hermite rule that hermgauss builds.
_QUADRATURE_GOLDEN = {
    1: "b52462c1027997b6cd2b365b6607e4495598bc93b31f862c49bc58c25796f2a7",
    2: "5f97fe056594a3102e4ca21331be0b81bb0ce6099c60ccea0b9d9e6d29e550b8",
    3: "d7875e3e64e40860d8e31feeeaa26dabb8493506f39538592c96e4dfb5573066",
    "tabulated": "46e619b31d82c6528f0dd22f6262c195ee6816c32e438ae57192f84a29eb261b",
}


def test_quadrature_route_golden_digests():
    rng = np.random.default_rng(20260814)
    digests = {}
    for d in (1, 2, 3):
        md = MollifiedDrift(oscillatory_singular(3.0, 0.25), 64, 0.5)
        x = rng.normal(size=(8, 100, d))
        v = np.broadcast_to(0.5 * rng.normal(size=(100, d)), x.shape)
        digests[d] = mollify_evaluate_arrays(md, x, v)
    table = TabulatedField(np.linspace(-6, 6, 25), np.linspace(-6, 6, 25),
                           rng.normal(size=(25, 25)))
    md = MollifiedDrift(tabulated_drift(table), 16, 0.5)
    x = 0.5 * rng.normal(size=(8, 100, 1))
    v = np.broadcast_to(0.5 * rng.normal(size=(100, 1)), x.shape)
    digests["tabulated"] = mollify_evaluate_arrays(md, x, v)
    for key, out in digests.items():
        assert hashlib.sha256(out.tobytes()).hexdigest() == _QUADRATURE_GOLDEN[key], key


def test_quadrature_orders_must_be_integers():
    for bad in (2.5, 0, True, "8"):
        with pytest.raises(ConfigError, match="quad_order"):
            _check_int("quad_order", bad, 1)
    assert _check_int("quad_order", np.int64(16), 1) == 16
    # the Gauss-Hermite order is fixed, not a per-drift setting
    md = mollify(oscillatory_singular(), 8, 0.5)
    assert md.quad_points == MollifiedDrift.quad_points == 64
    with pytest.raises(TypeError):
        MollifiedDrift(oscillatory_singular(), 8, 0.5, quad_points=16)


def test_admissibility_bound_and_rejection():
    s = sign_velocity()
    assert admissibility_bound(s, 1) == pytest.approx(0.8)
    assert admissibility_bound(s, 2) == pytest.approx(0.4)
    assert admissibility_bound(zero_drift(), 1) is None
    mollify(s, 16, 0.5)
    with pytest.raises(ConfigError):
        mollify(s, 16, 0.8)
    with pytest.raises(ConfigError):
        mollify(s, 16, 0.5, d=2)
    # unlabeled drifts accept any positive exponent
    mollify(linear_friction(), 16, 5.0)
    with pytest.raises(ConfigError):
        mollify(s, 0, 0.5)
    with pytest.raises(ConfigError):
        mollify(s, 16, -0.1)


def test_mollify_rejects_zero_and_infinite_theta():
    # unlabeled drifts have no admissibility bound to catch theta = inf
    for theta in (0.0, math.inf):
        with pytest.raises(ConfigError):
            mollify(zero_drift(), 8, theta)
        with pytest.raises(ConfigError):
            mollify(linear_friction(), 8, theta)


def test_tabulated_bilinear_is_exact_on_affine():
    xs = np.linspace(-2, 2, 9)
    vs = np.linspace(-1, 3, 7)
    vals = 0.5 + 1.5 * xs[:, None] - 2.0 * vs[None, :]
    tab = TabulatedField(xs, vs, vals)
    rng = np.random.default_rng(3)
    xq = rng.uniform(-2, 2, size=40)
    vq = rng.uniform(-1, 3, size=40)
    out = tab.interpolate(xq, vq)
    assert np.max(np.abs(out - (0.5 + 1.5 * xq - 2.0 * vq))) <= 1e-13


def test_tabulated_extrapolation_raises():
    tab = TabulatedField([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ExtrapolationError):
        tab.interpolate(np.array([1.5]), np.array([0.5]))
    with pytest.raises(ExtrapolationError):
        tab.interpolate(np.array([0.5]), np.array([-0.1]))


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        TabulatedField([0.0], [0.0, 1.0], np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        TabulatedField([0.0, 1.0, 0.5], [0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        TabulatedField([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(DomainError):
        TabulatedField([0.0, 1.0], [0.0, 1.0], np.full((2, 2), np.nan))


def test_tabulated_csv_roundtrip_is_bitwise():
    rng = np.random.default_rng(11)
    tab = TabulatedField(
        np.sort(rng.uniform(-3, 3, 6)),
        np.sort(rng.uniform(-3, 3, 5)),
        rng.normal(size=(6, 5)),
    )
    buf = io.StringIO()
    save_tabulated(tab, buf)
    buf.seek(0)
    back = load_tabulated(buf)
    assert np.array_equal(back.x, tab.x)
    assert np.array_equal(back.v, tab.v)
    assert np.array_equal(back.values, tab.values)


def test_load_tabulated_rejects_malformed_input():
    with pytest.raises(ConfigError):
        load_tabulated(io.StringIO("wrong,header\n"))
    good = io.StringIO()
    save_tabulated(TabulatedField([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2))), good)
    truncated = "".join(good.getvalue().splitlines(keepends=True)[:-1])
    with pytest.raises(ConfigError):
        load_tabulated(io.StringIO(truncated))


def test_drift_from_name():
    assert drift_from_name("zero").kind == "zero"
    assert drift_from_name("constant", c=2.5).constant == (2.5,)
    assert drift_from_name("linear_friction", gamma=3.0).gamma == 3.0
    assert drift_from_name("oscillatory_singular", kappa=5.0).kappa == 5.0
    with pytest.raises(ConfigError):
        drift_from_name("brownian_banana")
    with pytest.raises(ConfigError):
        drift_from_name("tabulated")


def test_drift_from_name_tabulated(tmp_path):
    path = tmp_path / "field.csv"
    tab = TabulatedField([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
    with open(path, "w", encoding="utf-8") as fh:
        save_tabulated(tab, fh)
    spec = drift_from_name("tabulated", table_path=str(path))
    assert spec.kind == "tabulated"
    assert spec.table.interpolate(np.array([0.5]), np.array([0.5]))[0] == 1.5


def test_constant_drift_rejects_nonfinite():
    with pytest.raises(DomainError):
        constant_drift([1.0, math.inf])
