import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kinetic_em import rates
from kinetic_em.drifts import linear_friction, sign_velocity, zero_drift
from kinetic_em.errors import ConfigError, ConfigWarning, DomainError
from kinetic_em.rates import (
    EXACT_TOL,
    RateReport,
    default_test_functions,
    fit_rate,
    strong_error,
    taming_demo,
    tv_proxy,
    weak_error,
)
from kinetic_em.rates import TestFunctionSet as FunctionSet


def test_fit_rate_recovers_exact_power_law():
    levels = (8, 16, 32, 64)
    errors = [2.0 * n**-1.5 for n in levels]
    slope, se = fit_rate(levels, errors)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_fit_rate_validation():
    with pytest.raises(ConfigError):
        fit_rate((8, 16), (1.0, 0.5))
    with pytest.raises(DomainError):
        fit_rate((8, 16, 32), (1.0, 0.0, 0.25))


def test_fit_rate_noise_coverage():
    # with 5% multiplicative noise the fitted slope should sit within
    # 3 reported standard errors of the truth almost always
    rng = np.random.default_rng(123)
    levels = np.array([8, 16, 32, 64, 128, 256])
    hits = 0
    for _ in range(100):
        errs = 3.0 * levels**-0.7 * np.exp(rng.normal(0.0, 0.05, levels.size))
        slope, se = fit_rate(tuple(levels), errs, errors_se=0.05 * errs)
        if abs(slope - 0.7) <= 3.0 * se:
            hits += 1
    assert hits >= 97


def test_default_test_functions_bounded():
    fset = default_test_functions(d=2)
    assert len(fset.names) == len(fset.funcs)
    rng = np.random.default_rng(0)
    x = rng.uniform(-50.0, 50.0, size=(500, 2))
    v = rng.uniform(-50.0, 50.0, size=(500, 2))
    x[0] = v[0] = 0.0
    sup = max(float(np.max(np.abs(f(x, v)))) for f in fset.funcs)
    assert sup <= 1.0 + 1e-12
    with pytest.raises(ConfigError):
        FunctionSet(("a", "b"), (lambda x, v: x[:, 0],))


def test_rate_report_validation_and_labels():
    rep = RateReport((4, 8, 16), (1.0, 0.5, 0.25), (0.0, 0.0, 0.0), 1.0, 0.1)
    assert rep.error_pairs == ((1.0, 0.0), (0.5, 0.0), (0.25, 0.0))
    assert rep.slope_label == "1.0000 +/- 0.1000"
    nan = float("nan")
    assert RateReport((4, 8), (1.0, 0.5), (0.0, 0.0), nan, nan).slope_label == "unfitted"
    exact = RateReport((4, 8), (0.0, 0.0), (0.0, 0.0), nan, nan, exact=True)
    assert exact.slope_label == "exact"
    with pytest.raises(DomainError):
        RateReport((4, 8), (1.0, 0.0), (0.0, 0.0), nan, nan)
    with pytest.raises(ConfigError):
        RateReport((4, 8), (1.0, 0.5), (0.0,), nan, nan)
    with pytest.raises(ConfigError):
        RateReport((8, 4), (1.0, 0.5), (0.0, 0.0), nan, nan)
    with pytest.raises(ConfigError):
        RateReport((4, 8), (1.0, 0.5), (0.0, 0.0), 1.0, nan)


def test_strong_error_validation():
    s = sign_velocity()
    with pytest.raises(ConfigError):
        strong_error(s, 0.5, (4, 8), 32, samples=50)
    with pytest.raises(ConfigError):
        strong_error(s, 0.5, (4, 12), 32, samples=100)
    with pytest.raises(ConfigError):
        # the moment order must stay below the labeled integrability
        strong_error(s, 0.5, (4, 8), 32, samples=100, m=3.5)
    with pytest.raises(ConfigError):
        strong_error(s, 0.5, (4, 8), 32, samples=100, reference="oracle")
    with pytest.raises(ConfigError):
        strong_error(s, 0.5, (4, 8), 32, samples=100, reference="exact")


def test_strong_error_zero_drift_is_exact():
    rep = strong_error(zero_drift(), 0.5, (4, 8, 16), 32, samples=120, seed=7,
                       reference="exact")
    assert rep.exact
    assert max(rep.errors) < EXACT_TOL
    assert math.isnan(rep.slope)
    assert rep.metadata["reference"] == "exact"


def test_strong_error_thread_and_chunk_invariance(monkeypatch):
    kwargs = dict(samples=120, seed=7)
    monkeypatch.setattr(rates, "_STRONG_CHUNK", 17)
    a = strong_error(sign_velocity(), 0.5, (4, 8, 16), 32, threads=1, **kwargs)
    monkeypatch.setattr(rates, "_STRONG_CHUNK", 64)
    b = strong_error(sign_velocity(), 0.5, (4, 8, 16), 32, threads=4, **kwargs)
    assert a.errors == b.errors
    assert a.errors_se == b.errors_se
    assert a.slope == b.slope


def test_strong_error_bootstrap_batches_match_one_draw(monkeypatch):
    kwargs = dict(samples=101, seed=5, bootstrap=20)
    whole = strong_error(sign_velocity(), 0.5, (4, 8), 16, **kwargs)
    # 3 resample rows per batch: six full batches and a partial one
    monkeypatch.setattr(rates, "_BOOTSTRAP_INDICES", 3 * kwargs["samples"])
    batched = strong_error(sign_velocity(), 0.5, (4, 8), 16, **kwargs)
    assert batched.errors == whole.errors
    assert batched.errors_se == whole.errors_se


def test_bootstrap_batch_memory_is_bounded():
    # strong-ou's 20000 samples: a batch holds about 2^16 indices and the
    # values they pick, 1 MB together, however many resamples are asked for
    em = np.random.default_rng(0).random(20_000)
    gen = rates.make_generator(1, 2)
    tracemalloc.start()
    try:
        norms = rates._bootstrap_norms(em, 2.0, 200, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norms.shape == (200,)
    assert peak <= 2 * 8 * (1 << 16) + norms.nbytes + 16 * 1024, peak


def test_strong_error_linear_friction_exact_reference():
    rep = strong_error(linear_friction(1.0), 0.5, (8, 16, 32), 64,
                       samples=200, seed=11, reference="exact")
    assert not rep.exact
    assert all(e > 0 for e in rep.errors)
    # errors against the exact flow must shrink with resolution
    assert rep.errors[-1] < rep.errors[0]


def test_diverging_drift_raises_naming_the_level():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow on the way
        with pytest.raises(DomainError, match=r"linear_friction\(gamma=1e\+200\).*n=32"):
            strong_error(linear_friction(1e200), 0.5, (8, 16), 32, samples=100, seed=1)


@pytest.mark.parametrize("experiment", ["strong", "weak", "tv"])
def test_non_finite_final_state_names_its_stream(monkeypatch, experiment):
    real = rates.step_block
    level_8_calls = []

    def poisoned(md, h, dw, di, x, v, *args, **kwargs):
        out = real(md, h, dw, di, x, v, *args, **kwargs)
        if md.n == 8:
            level_8_calls.append(None)
            if len(level_8_calls) == 2:  # the second chunk, streams 40..79
                v[17, 0] = np.nan
        return out

    monkeypatch.setattr(rates, "step_block", poisoned)
    for name in ("_STRONG_CHUNK", "_WEAK_CHUNK", "_TV_CHUNK"):
        monkeypatch.setattr(rates, name, 40)
    s = sign_velocity()
    run = {
        "strong": lambda: strong_error(s, 0.5, (8, 16), 32, samples=120, seed=3),
        "weak": lambda: weak_error(s, 0.5, (8, 16), 32, samples=120, ref_samples=100, seed=3),
        "tv": lambda: tv_proxy(s, 0.5, 8, 32, bins=8, samples=512, seed=3),
    }[experiment]
    with pytest.raises(DomainError, match="sign_velocity.*n=8.*stream index 57"):
        run()


def test_weak_error_constant_function_is_exact():
    const = FunctionSet(("one",), (lambda x, v: np.ones(x.shape[0]),))
    rep = weak_error(zero_drift(), 0.5, (8, 16, 32), 64, fset=const,
                     samples=500, seed=0)
    assert rep.primary.exact
    assert rep.tv_sq_proxy == (0.0, 0.0, 0.0)


def test_weak_error_null_is_noise():
    # identical laws at every level: discrepancies are Monte Carlo noise
    rep = weak_error(zero_drift(), 0.5, (8,), 16, samples=4000, seed=3, threads=1)
    sigmas = [o.err / o.se for o in rep.observations if o.se > 0]
    assert max(sigmas) <= 2.0


def test_weak_error_thread_and_chunk_invariance(monkeypatch):
    monkeypatch.setattr(rates, "_WEAK_CHUNK", 100)
    a = weak_error(sign_velocity(), 0.5, (8, 16), 32, samples=3000, seed=1, threads=1)
    monkeypatch.setattr(rates, "_WEAK_CHUNK", 512)
    b = weak_error(sign_velocity(), 0.5, (8, 16), 32, samples=3000, seed=1, threads=3)
    for oa, ob in zip(a.observations, b.observations):
        assert oa.err == ob.err and oa.se == ob.se
    assert a.primary.errors == b.primary.errors


def test_weak_error_off_grid_time_rejected():
    with pytest.raises(ConfigError):
        weak_error(zero_drift(), 0.5, (8,), 16, t_eval=(0.3,), samples=500)


def test_weak_error_report_shape():
    rep = weak_error(sign_velocity(), 0.5, (8, 16), 32, t_eval=(0.5, 1.0),
                     samples=2000, seed=6)
    assert len(rep.reports) == 2
    assert rep.primary is rep.reports[-1]
    assert rep.t_eval == (0.5, 1.0)
    # one observation per (time, level, function)
    assert len(rep.observations) == 2 * 2 * len(default_test_functions(1).names)
    assert len(rep.tv_sq_proxy) == 2


def test_taming_demo_slopes_and_gap():
    rep = taming_demo((16, 64, 256), samples=30000, seed=5)
    assert 0.9 <= rep.uncorrected.slope <= 1.1
    assert 1.35 <= rep.shifted.slope <= 1.65
    assert rep.shifted.slope - rep.uncorrected.slope > 0.3
    for gap, se in zip(rep.gap_means, rep.gap_ses):
        assert gap >= -2.0 * se


def test_taming_demo_drops_on_grid_levels():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = taming_demo((8, 16, 32, 64), samples=2000, seed=0, horizon=31.0 / 32.0)
    assert rep.uncorrected.levels == (8, 16)
    assert any(issubclass(w.category, ConfigWarning) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        with pytest.raises(ConfigError):
            taming_demo((2, 4), samples=2000, seed=0, horizon=0.5)


def test_tv_proxy_validation():
    s = sign_velocity()
    with pytest.raises(DomainError):
        tv_proxy(s, 0.5, 16, 256, d=2, samples=16000)
    with pytest.raises(ConfigError):
        tv_proxy(s, 0.5, 16, 256, bins=4, samples=16000)
    with pytest.raises(ConfigError):
        tv_proxy(s, 0.5, 16, 256, bins=24, samples=100)


def test_tv_proxy_same_law_sits_at_noise_floor():
    rep = tv_proxy(sign_velocity(), 0.5, 16, 16, samples=16000, seed=2)
    assert rep.estimate <= 2.0 * rep.noise_floor


def test_tv_proxy_decreases_with_resolution():
    hi = tv_proxy(sign_velocity(), 0.5, 8, 256, samples=16000, seed=2)
    lo = tv_proxy(sign_velocity(), 0.5, 64, 256, samples=16000, seed=2)
    assert hi.estimate > 2.0 * hi.noise_floor
    assert hi.estimate > lo.estimate
    rep2 = tv_proxy(sign_velocity(), 0.5, 8, 256, samples=16000, seed=2, threads=4)
    assert rep2.estimate == hi.estimate
