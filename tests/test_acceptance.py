"""End-to-end acceptance gate.

Each test prints one [criterion NN] PASS/FAIL line with the measured
quantities, then asserts.  The master seed is fixed; every criterion is
deterministic given the seed.
"""

import glob
import math
import os

import numpy as np

from kinetic_em.cli import main as cli_main
from kinetic_em.drifts import (
    constant_drift,
    linear_friction,
    mollify,
    sign_velocity,
    zero_drift,
)
from kinetic_em.integrator import integrate
from kinetic_em.kernel import (
    MixedExponent,
    PhaseState,
    kernel_mass,
    kernel_norm_exponent_fit,
    scaling_identity_error,
)
from kinetic_em.paths import (
    GridSpec,
    increment_identity_report,
    prefix_integrals,
    sample_increment_block,
    sample_path,
)
from kinetic_em.rates import strong_error, taming_demo, weak_error

MASTER_SEED = 20260814


def _criterion(num, desc, passed, details):
    state = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {desc}: {state} ({details})")
    assert passed, f"criterion {num:02d} {desc}: {details}"


def test_criterion_01_free_flow_is_exact():
    worst = 0.0
    for n in (4, 64):
        for d in (1, 2):
            g = GridSpec(n=n, horizon=1.0, d=d)
            md = mollify(zero_drift(), n, 0.5, d=d)
            for j in range(100):
                p = sample_path(g, MASTER_SEED, j)
                traj = integrate(md, p)
                w, i = prefix_integrals(p.dW, p.dI, g.h)
                worst = max(
                    worst,
                    float(np.max(np.abs(traj.v - w))),
                    float(np.max(np.abs(traj.x - i))),
                )
    _criterion(1, "zero drift reproduces free flow", worst < 1e-11,
               f"sup deviation {worst:.3e} over n in {{4,64}}, d in {{1,2}}, "
               f"100 paths each; tolerance 1e-11")


def test_criterion_02_constant_drift_closed_form():
    g = GridSpec(n=16, horizon=1.0, d=1)
    md = mollify(constant_drift(1.0), 16, 0.5)
    t = g.times()[:, None]
    worst = 0.0
    for j in range(100):
        p = sample_path(g, MASTER_SEED, j)
        traj = integrate(md, p)
        w, i = prefix_integrals(p.dW, p.dI, g.h)
        worst = max(
            worst,
            float(np.max(np.abs(traj.v - (t + w)))),
            float(np.max(np.abs(traj.x - (t**2 / 2 + i)))),
        )
    _criterion(2, "constant drift matches its closed form", worst < 1e-10,
               f"sup deviation {worst:.3e} over 100 paths at n=16; tolerance 1e-10")


def test_criterion_03_increment_sampler_covariance():
    g = GridSpec(n=64, horizon=1.0, d=1)
    dw, di = sample_increment_block(g, MASTER_SEED, range(1563))
    dw = dw.reshape(-1)
    di = di.reshape(-1)
    n = dw.size
    h = g.h
    var_w = float(dw.var())
    var_i = float(di.var())
    cov = float(np.cov(dw, di)[0, 1])
    sig_w = abs(var_w - h) / (h * math.sqrt(2.0 / n))
    sig_i = abs(var_i - h**3 / 3) / ((h**3 / 3) * math.sqrt(2.0 / n))
    sig_c = abs(cov - h**2 / 2) / math.sqrt((h * h**3 / 3 + h**4 / 4) / n)
    worst = max(sig_w, sig_i, sig_c)
    _criterion(3, "augmented increments have the exact covariance", worst <= 3.0,
               f"{n} pooled pairs at h=1/64: sigmas var(W)={sig_w:.2f}, "
               f"var(I)={sig_i:.2f}, cov={sig_c:.2f}; cap 3")


def test_criterion_04_kernel_mass_scaling_and_norms():
    mass_errs = [
        abs(kernel_mass(0.5, d=1) - 1.0),
        abs(kernel_mass(1.0, d=1) - 1.0),
        abs(kernel_mass(1.0, d=2) - 1.0),
    ]
    rng = np.random.default_rng(MASTER_SEED)
    scale_err = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.1, 2.0))
        z = PhaseState(x=rng.normal(size=1) * t**1.5, v=rng.normal(size=1) * t**0.5)
        scale_err = max(scale_err, scaling_identity_error(t, z))
    fit_errs = []
    for p in (1.0, 2.0, math.inf):
        fitted, expect, _ = kernel_norm_exponent_fit(MixedExponent(p, p))
        fit_errs.append(abs(fitted - expect) / max(1.0, abs(expect)))
    ok = (max(mass_errs) < 1e-8 and scale_err < 1e-12 and max(fit_errs) <= 0.05)
    _criterion(4, "kernel mass, parabolic scaling, norm exponents", ok,
               f"mass err {max(mass_errs):.2e} (tol 1e-8), scaling err "
               f"{scale_err:.2e} on 1000 probes (tol 1e-12), worst exponent "
               f"misfit {max(fit_errs) * 100:.2f}% (cap 5%)")


def test_criterion_05_increment_renewal_identity():
    g = GridSpec(n=16, horizon=1.0, d=1)
    rep = increment_identity_report(g, 5, 13, samples=100_000, seed=MASTER_SEED)
    sig_cov = rep.max_cov_sigmas()
    sig_cross = rep.max_cross_sigmas()
    ok = max(sig_cov, sig_cross) <= 3.0
    _criterion(5, "shifted increments renew independently", ok,
               f"100000 samples, s={rep.s}, t={rep.t}: renewal covariance "
               f"{sig_cov:.2f} sigma, cross-correlation {sig_cross:.2f} sigma; cap 3")


def test_criterion_06_taming_demo_rates():
    levels = (16, 32, 64, 128, 256, 512, 1024)
    rep = taming_demo(levels, samples=100_000, seed=MASTER_SEED)
    i_slope, i_se = rep.uncorrected.slope, rep.uncorrected.slope_se
    j_slope = rep.shifted.slope
    gap_ok = all(g >= -2.0 * s for g, s in zip(rep.gap_means, rep.gap_ses))
    ok = (0.85 <= i_slope <= 1.15) and (j_slope >= 1.30) and gap_ok
    _criterion(6, "transport shift upgrades the local rate", ok,
               f"I slope {i_slope:.4f}+/-{i_se:.4f} in [0.85,1.15], J slope "
               f"{j_slope:.4f} >= 1.30, shifted gap nonnegative within 2 sigma: "
               f"{gap_ok}")


def test_criterion_07_strong_rate_exact_oracle():
    rep = strong_error(
        linear_friction(1.0), 0.5, (16, 32, 64, 128, 256, 512), 512,
        samples=2000, seed=MASTER_SEED, reference="exact", threads=2,
    )
    ok = rep.slope >= 0.45 and rep.slope_se < 0.1
    _criterion(7, "strong rate vs exact linear flow", ok,
               f"slope {rep.slope:.4f} >= 0.45, se {rep.slope_se:.4f} < 0.1, "
               f"levels 2^4..2^9, 2000 paths")


def test_criterion_08_strong_rate_singular_drift():
    rep = strong_error(
        sign_velocity(), 0.5, (16, 32, 64, 128, 256), 4096,
        samples=1000, seed=MASTER_SEED, initial=([0.0], [1.0]), threads=2,
    )
    ok = rep.slope >= 0.45 and rep.slope_se < 0.15
    _criterion(8, "strong rate for the sign drift", ok,
               f"slope {rep.slope:.4f} >= 0.45, se {rep.slope_se:.4f} < 0.15, "
               f"levels 2^4..2^8 against n_ref=4096, 1000 paths")


def test_criterion_09_weak_rate_singular_drift():
    rep = weak_error(
        sign_velocity(), 0.5, (16, 32, 64, 128, 256), 4096,
        samples=100_000, seed=MASTER_SEED, threads=4,
    )
    primary = rep.primary
    null = weak_error(
        zero_drift(), 0.5, (16,), 64, samples=20_000, ref_samples=40_000,
        seed=MASTER_SEED, threads=4,
    )
    null_sig = max(o.err / o.se for o in null.observations if o.se > 0)
    ok = primary.slope >= 0.40 and primary.slope_se < 0.15 and null_sig <= 2.0
    _criterion(9, "weak rate for the sign drift with clean null", ok,
               f"slope {primary.slope:.4f} >= 0.40, se {primary.slope_se:.4f} "
               f"< 0.15 at t=1; zero-drift null max {null_sig:.2f} sigma <= 2")


def test_criterion_10_cli_thread_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[strong-rate]\ndrift = sign_velocity\nreference = self\n"
        "levels = 16, 32\nn_ref = 64\nsamples = 512\n",
        encoding="utf-8",
    )
    digests = {}
    for threads in (1, 8):
        out = str(tmp_path / f"t{threads}")
        code = cli_main([
            "strong-rate", "--config", str(cfg), "--seed", str(MASTER_SEED),
            "--threads", str(threads), "--out", out,
        ])
        assert code == 0
        run = glob.glob(os.path.join(out, "strong-rate-*"))[0]
        with open(os.path.join(run, "rates.csv"), "rb") as fh:
            digests[threads] = fh.read()
    ok = digests[1] == digests[8]
    _criterion(10, "thread count never changes results", ok,
               f"rates.csv byte-identical across --threads 1 and 8: {ok}")
