"""Benchmark the stepping backends against each other.

Runs the closed-form stepping kernel of every backend in
`available_backends()` over a grid of (steps, paths) workloads for each drift
kind and reports throughput in path-steps per second.  The compiled backend is
there once `python setup.py build_ext --inplace` has built it.  The
`exact_linear` rows time `integrator.exact_linear_block`, the exact OU
solution of strong-rate runs, which has only a NumPy implementation.  The
`coarsen_xF` rows time `paths.coarsen_block` aggregating a (4096, 256, 1)
increment block by factor F, counted in fine path-steps per second.  The
`quadrature_*` rows time `drifts.mollify_evaluate_arrays` on the
Gauss-Hermite route at strong-osc's step shape (8 shift nodes x 100 states,
velocity a zero-stride view) and count nominal grid points per second.
`quadrature_osc` is the oscillatory drift at normal positions, where most
states see one sign of sin(kappa x) on all their offsets and take one grid sum
per velocity; in `quadrature_osc_mixed` every state's offsets straddle a zero
of sin(kappa x), so every state builds its own grid as the outer product of
the drift's factors; `quadrature_tab` is a tabulated field, which does not
factor.  All rows run under `--quick` too.

Usage: python3 benchmarks/bench_steppers.py [--quick]
"""

import argparse
import time

import numpy as np

from kinetic_em._steppers import available_backends
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
from kinetic_em.integrator import closed_form_code, exact_linear_block
from kinetic_em.paths import coarsen_block

# mollified at n=64, theta=0.25 (admissible up to d=3): erf scale 64^0.25/sqrt(2) = 2
DRIFTS = {
    "zero": zero_drift(),
    "constant": constant_drift(0.7),
    "linear_friction": linear_friction(1.0),
    "sign_velocity": sign_velocity(),
}


def kind_and_params(drift, d: int):
    """Backend (kind, params) for the drift at dimension d, as the integrator passes them."""
    return closed_form_code(mollify(drift, 64, 0.25, d=d), d)


def workload(steps: int, paths: int, d: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    h = 1.0 / steps
    dw = rng.normal(scale=h**0.5, size=(steps, paths, d))
    di = rng.normal(scale=h**1.5, size=(steps, paths, d))
    x = rng.normal(size=(paths, d))
    v = rng.normal(size=(paths, d))
    return h, dw, di, x, v


def run(call, x, v, repeats: int = 3) -> float:
    """Best time of call(xs, vs) over fresh copies of the start state."""
    best = float("inf")
    for _ in range(repeats):
        xs, vs = x.copy(), v.copy()
        t0 = time.perf_counter()
        call(xs, vs)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller workloads")
    args = ap.parse_args()

    # paths = 1, 8, 32 bracket the NumPy backend's scalar/vectorized crossover
    crossover = [(256, 1, 1), (256, 8, 1), (256, 32, 1)]
    shapes = crossover + [(256, 256, 1), (1024, 512, 1), (4096, 1024, 1), (1024, 512, 3)]
    if args.quick:
        shapes = crossover + [(256, 128, 1), (1024, 256, 1)]

    backends = available_backends()
    compiled = backends.get("compiled")
    if compiled is None:
        print("compiled backend unavailable; benchmarking the NumPy fallback only")
    header = f"{'kind':20s} {'steps':>6s} {'paths':>6s} {'d':>2s} " \
             f"{'numpy Mps':>10s} {'compiled Mps':>13s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for kind_name, drift in DRIFTS.items():
        for steps, paths, d in shapes:
            kind, params = kind_and_params(drift, d)
            h, dw, di, x, v = workload(steps, paths, d)
            t_np = run(lambda xs, vs: backends["numpy"](dw, di, xs, vs, h, kind, params),
                       x, v)
            mps_np = steps * paths * d / t_np / 1e6
            if compiled is not None:
                t_c = run(lambda xs, vs: compiled(dw, di, xs, vs, h, kind, params), x, v)
                mps_c = steps * paths * d / t_c / 1e6
                print(f"{kind_name:20s} {steps:6d} {paths:6d} {d:2d} "
                      f"{mps_np:10.1f} {mps_c:13.1f} {t_np / t_c:7.2f}x")
            else:
                print(f"{kind_name:20s} {steps:6d} {paths:6d} {d:2d} "
                      f"{mps_np:10.1f} {'-':>13s} {'-':>8s}")
    for steps, paths, d in shapes:
        h, dw, di, x, v = workload(steps, paths, d)
        zeta = np.random.default_rng(1).normal(size=(steps, paths, d, 2))
        t_np = run(lambda xs, vs: exact_linear_block(1.0, h, dw, di, ((0, paths, zeta),),
                                                     xs, vs), x, v)
        print(f"{'exact_linear':20s} {steps:6d} {paths:6d} {d:2d} "
              f"{steps * paths * d / t_np / 1e6:10.1f} {'-':>13s} {'-':>8s}")
    steps, paths, d = 4096, 256, 1
    h, dw, di, x, v = workload(steps, paths, d)
    for factor in (2, 4, 8, 16, 32, 64, 128, 256):
        t_np = run(lambda xs, vs: coarsen_block(dw, di, factor, h), x, v)
        print(f"{f'coarsen_x{factor}':20s} {steps:6d} {paths:6d} {d:2d} "
              f"{steps * paths * d / t_np / 1e6:10.1f} {'-':>13s} {'-':>8s}")
    rng = np.random.default_rng(2)
    table = TabulatedField(np.linspace(-6, 6, 25), np.linspace(-6, 6, 25),
                           rng.normal(size=(25, 25)))
    x = 0.5 * rng.normal(size=(8, 100, 1))
    v = np.broadcast_to(0.5 * rng.normal(size=(100, 1)), x.shape)
    # within 0.01 of a zero k pi / 3 of sin(3x); the offsets reach 0.029 either side
    mixed = rng.integers(-2, 3, size=x.shape) * np.pi / 3 + rng.uniform(-0.01, 0.01, x.shape)
    for name, drift, xq in (("quadrature_osc", oscillatory_singular(), x),
                            ("quadrature_osc_mixed", oscillatory_singular(), mixed),
                            ("quadrature_tab", tabulated_drift(table), x)):
        md = mollify(drift, 64, 0.5)
        t_np = run(lambda xs, vs: mollify_evaluate_arrays(md, xs, v), xq, v)
        print(f"{name:20s} {xq.shape[0]:6d} {xq.shape[1]:6d} {xq.shape[2]:2d} "
              f"{xq.size * md.quad_points**2 / t_np / 1e6:10.1f} {'-':>13s} {'-':>8s}")


if __name__ == "__main__":
    main()
