import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinetic_em.errors import ConfigError, DomainError
from kinetic_em.kernel import (
    KernelCovariance,
    MixedExponent,
    PhaseGrid1D,
    PhaseState,
    covariance_form_error,
    gamma_shift,
    kernel_density,
    kernel_grid,
    kernel_mass,
    kernel_norm_exponent_fit,
    mixed_lp_norm,
    scaling_identity_error,
)

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


def test_phase_state_validation():
    z = PhaseState(x=[1.0, 2.0], v=[0.0, -1.0])
    assert z.d == 2
    with pytest.raises(DomainError):
        PhaseState(x=[1.0], v=[1.0, 2.0])
    with pytest.raises(DomainError):
        PhaseState(x=[float("nan")], v=[0.0])
    with pytest.raises(ValueError):
        z.x[0] = 5.0


def test_gamma_shift_moves_position_only():
    z = PhaseState(x=[1.0], v=[2.0])
    w = gamma_shift(0.5, z)
    assert w.x[0] == 2.0 and w.v[0] == 2.0


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(-2, 2, allow_nan=False),
    s=st.floats(-2, 2, allow_nan=False),
    x=st.floats(-5, 5, allow_nan=False),
    v=st.floats(-5, 5, allow_nan=False),
)
def test_gamma_shift_group_law(t, s, x, v):
    z = PhaseState(x=[x], v=[v])
    a = gamma_shift(t, gamma_shift(s, z))
    b = gamma_shift(t + s, z)
    assert abs(a.x[0] - b.x[0]) <= 1e-12 * max(1.0, abs(b.x[0]))
    assert a.v[0] == b.v[0]


def test_density_value_at_origin():
    val = float(kernel_density(1.0, x=np.zeros(1), v=np.zeros(1)))
    assert val == pytest.approx(SQRT3_OVER_PI, abs=1e-15)
    # parabolic scaling moves the prefactor as t^-2d
    val2 = float(kernel_density(0.5, x=np.zeros(1), v=np.zeros(1)))
    assert val2 == pytest.approx(SQRT3_OVER_PI * 0.5**-2, rel=1e-13)


def test_density_point_symmetry():
    x = np.array([0.3]), np.array([-0.7])
    a = float(kernel_density(0.8, x=np.array([0.3]), v=np.array([-0.7])))
    b = float(kernel_density(0.8, x=np.array([-0.3]), v=np.array([0.7])))
    assert a == pytest.approx(b, rel=1e-14)


def test_density_rejects_bad_time():
    with pytest.raises(DomainError):
        kernel_density(0.0, x=np.zeros(1), v=np.zeros(1))
    with pytest.raises(DomainError):
        kernel_density(-1.0, x=np.zeros(1), v=np.zeros(1))


def test_covariance_matrix_and_det():
    c = KernelCovariance(2.0)
    expect = np.array([[2.0, 2.0], [2.0, 8.0 / 3.0]])
    assert np.allclose(c.matrix, expect, atol=1e-15)
    # det = t^4/12, the determinant behind the density prefactor sqrt(3)/(pi t^2)
    assert np.linalg.det(c.matrix) == pytest.approx(2.0**4 / 12.0, rel=1e-14)


def test_normalization_d1_d2():
    assert abs(kernel_mass(1.0, d=1) - 1.0) < 1e-8
    assert abs(kernel_mass(0.25, d=1) - 1.0) < 1e-8
    assert abs(kernel_mass(1.0, d=2, points=97) - 1.0) < 1e-8


def test_scaling_identity_random_probes():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.05, 3.0))
        z = PhaseState(x=rng.normal(size=2) * t**1.5, v=rng.normal(size=2) * t**0.5)
        worst = max(worst, scaling_identity_error(t, z))
    assert worst < 1e-12


def test_covariance_form_matches_exponent():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = float(rng.uniform(0.1, 2.0))
        z = PhaseState(x=rng.normal(size=1), v=rng.normal(size=1))
        assert covariance_form_error(t, z) < 1e-10


def _uniform_grid(lo, hi, n):
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return PhaseGrid1D(x, w, x.copy(), w.copy())


def test_mixed_lp_norm_gaussian_oracle():
    # separable gaussian: ||f||_{2,2}^2 = (int e^-x^2 dx)(int e^-v^2 dv) = pi
    grid = _uniform_grid(-8.0, 8.0, 641)
    f = lambda x, v: np.exp(-0.5 * (x**2).sum(axis=-1) - 0.5 * (v**2).sum(axis=-1))
    val = mixed_lp_norm(f, MixedExponent(2.0, 2.0), grid)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    sup = mixed_lp_norm(f, MixedExponent(math.inf, math.inf), grid)
    assert sup == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError, match="^f must be a callable"):
        mixed_lp_norm(np.ones((641, 641)), MixedExponent(2.0, 2.0), grid)


def test_mixed_lp_norm_l1_of_kernel_is_mass():
    g = kernel_grid(0.5, points=257)
    val = mixed_lp_norm(
        lambda x, v: kernel_density(0.5, x=x, v=v), MixedExponent(1.0, 1.0), g)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_norm_exponent_fits():
    for (px, pv), expected in (((1.0, 1.0), 0.0), ((2.0, 2.0), -1.0),
                               ((math.inf, math.inf), -2.0)):
        fitted, expect, norms = kernel_norm_exponent_fit(MixedExponent(px, pv))
        assert expect == pytest.approx(expected, abs=1e-12)
        assert abs(fitted - expect) <= 0.05 * max(1.0, abs(expect))
        assert all(n > 0 for n in norms)


def test_weighted_norm_exponent_fit():
    # moment weights |x|^alpha |v|^beta shift the exponent by 3a/2 + b/2
    fitted, expect, _ = kernel_norm_exponent_fit(
        MixedExponent(2.0, 2.0), alpha=1.0, beta=1.0)
    assert expect == pytest.approx(3.0 / 2.0 + 0.5 - 1.0, abs=1e-12)
    assert abs(fitted - expect) <= 0.05 * max(1.0, abs(expect))


def test_mixed_exponent_validation():
    MixedExponent(1.0, math.inf)
    with pytest.raises(DomainError):
        MixedExponent(0.5, 2.0)
