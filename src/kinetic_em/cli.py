"""Command line experiment runner.

Every run is determined by (config, seed, tool version): flags override the
config file, the effective configuration is hashed, outputs land in
<out>/<subcommand>-<hash>/ as CSV files, and a manifest.json with checksums
is written atomically once everything else is on disk.  The exit code is 0
iff every configured check passed.

Each subcommand returns (outputs, checks, summary), where outputs yields
(file name, text) pairs, every report table formatted by `_csv_text`;
`main` hashes each file as it arrives and writes them in batches of about
1 MiB, so a run's memory does not grow with the number of outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
from dataclasses import astuple

import mpmath
import numpy as np
import scipy

from . import __version__
from ._rng import ROLE_SIMULATE, stream_key
from ._steppers import backend_name
from .drifts import _DRIFT_PARAMS, _drift_params, _read_tabulated, drift_from_name, mollify
from .errors import ConfigError, KineticEmError, check_int, check_real
from .integrator import integrate, trajectory_to_csv
from .kernel import (
    MixedExponent,
    PhaseState,
    covariance_form_error,
    kernel_density,
    kernel_mass,
    kernel_norm_exponent_fit,
    scaling_identity_error,
)
from .paths import GridSpec, coarsen, sample_path, worker_count
from .rates import _check_finite, strong_error, taming_demo, tv_proxy, weak_error

# the keys some drift takes, each once, in catalog order
_DRIFT_PARAM_KEYS = tuple(dict.fromkeys(k for keys in _DRIFT_PARAMS.values() for k in keys))


def _as_bool(s):
    val = s.lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _as_int_list(s):
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _as_float_list(s):
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


# key -> (parser, default); a None default means "not set".  configparser
# strips the values it reads, so `int`, `float` and `str.strip` parse them.
_COMMON_SPEC = {
    "seed": (int, 0),
    "threads": (int, 1),
    "out": (str.strip, "runs"),
}

_DRIFT_SPEC = {
    "drift": (str.strip, "zero"),
    "c": (_as_float_list, None),
    "gamma": (float, None),
    "kappa": (float, None),
    "beta": (float, None),
    "table_path": (str.strip, None),
    "theta": (float, 0.5),
}

# the keys of every subcommand that steps paths, with one meaning in each
_STATE_SPEC = {
    "d": (int, 1),
    "initial_x": (_as_float_list, None),
    "initial_v": (_as_float_list, None),
    "quad_order": (int, 8),
}

_CONFIG_SPEC = {
    "simulate": {
        **_DRIFT_SPEC,
        **_STATE_SPEC,
        "n": (int, 8),
        "horizon": (float, 1.0),
        "paths": (int, 1),
        "sample_at": (int, None),
    },
    "strong-rate": {
        **_DRIFT_SPEC,
        **_STATE_SPEC,
        "drift": (str.strip, "linear_friction"),
        "gamma": (float, 1.0),
        "levels": (_as_int_list, (16, 32, 64, 128, 256, 512)),
        "n_ref": (int, 512),
        "m": (float, 2.0),
        "samples": (int, 2000),
        "reference": (str.strip, "exact"),
        "horizon": (float, 1.0),
        "bootstrap": (int, 200),
        "min_slope": (float, None),
        "max_slope_se": (float, None),
    },
    "weak-rate": {
        **_DRIFT_SPEC,
        **_STATE_SPEC,
        "drift": (str.strip, "sign_velocity"),
        "levels": (_as_int_list, (16, 32, 64, 128, 256)),
        "n_ref": (int, 1024),
        "t_eval": (_as_float_list, (1.0,)),
        "samples": (int, 20000),
        "ref_samples": (int, None),
        "horizon": (float, 1.0),
        "min_slope": (float, None),
        "max_slope_se": (float, None),
        "max_null_sigma": (float, None),
    },
    "taming-demo": {
        "levels": (_as_int_list, (16, 32, 64, 128, 256, 512, 1024)),
        "samples": (int, 100000),
        "horizon": (float, 47.0 / 48.0),
        "d": (int, 1),
        "min_i_slope": (float, None),
        "max_i_slope": (float, None),
        "min_j_slope": (float, None),
        "check_gaps": (_as_bool, True),
    },
    "kernel-check": {
        "probes": (int, 1000),
        "points": (int, 257),
    },
    "tv-proxy": {
        **_DRIFT_SPEC,
        **_STATE_SPEC,
        "drift": (str.strip, "sign_velocity"),
        "n": (int, 16),
        "n_ref": (int, 256),
        "t": (float, 1.0),
        "bins": (int, 24),
        "samples": (int, 20000),
        "radius_sds": (float, 4.0),
    },
}
SUBCOMMANDS = tuple(_CONFIG_SPEC)


def load_config(path: str, subcommand: str) -> dict:
    """Parse the INI-style config, honoring [common] plus the subcommand section."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"config key {exc.option!r} appears twice in [{exc.section}] "
                          f"(line {exc.lineno})") from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"config section [{exc.section}] appears twice "
                          f"(line {exc.lineno})") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"config line {exc.lineno} comes before any [section] header: "
                          f"{exc.line.strip()!r}") from exc
    except configparser.ParsingError as exc:
        lineno, line = exc.errors[0]  # the line as its repr
        raise ConfigError(f"config line {lineno} is not a 'key = value' pair: {line}") from exc
    if parser.defaults():
        raise ConfigError("put shared keys under [common], not [DEFAULT]")
    known_sections = {"common", *SUBCOMMANDS}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")
    spec = _CONFIG_SPEC[subcommand]
    raw: dict[str, str] = {}
    for section in ("common", subcommand):
        if parser.has_section(section):
            raw.update(parser.items(section))
    values = {}
    for key, text in raw.items():
        if key in _COMMON_SPEC:
            parse = _COMMON_SPEC[key][0]
        elif key in spec:
            parse = spec[key][0]
        else:
            raise ConfigError(f"unknown config key {key!r} for subcommand {subcommand}")
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key} has a bad value {text!r} ({exc})") from exc
    return values


def effective_config(subcommand: str, file_values: dict, flag_values: dict) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    cfg = {key: default for key, (_, default) in _COMMON_SPEC.items()}
    cfg.update({key: default for key, (_, default) in _CONFIG_SPEC[subcommand].items()})
    cfg.update(file_values)
    cfg.update({k: v for k, v in flag_values.items() if v is not None})
    return cfg


def _canon(value) -> str:
    """A value as config-hash and CSV text.

    A float is its repr and a bool lower case; a sequence is comma-joined.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_canon(v) for v in value)
    return str(value)


def config_hash(cfg: dict) -> str:
    """12-hex digest of the effective configuration, minus execution knobs."""
    lines = sorted(
        f"{key}={_canon(val)}" for key, val in cfg.items()
        if key not in ("threads", "out")
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def _resolve_drift_config(cfg: dict, file_values: dict):
    """The drift the run steps, or None for a subcommand that steps none.

    Rejects drift keys the config file sets that the named drift does not
    take, and adds a tabulated drift's table sha256 to cfg as
    `table_sha256`, hashed from the bytes the table is parsed from.  Only
    keys the file sets are checked: strong-rate's default gamma serves its
    default drift and must not fail an oscillatory run.  With the table's
    bytes in the config hash, an edited table gets its own run directory.
    """
    if "drift" not in cfg:
        return None
    _drift_params(cfg["drift"], [k for k in _DRIFT_PARAM_KEYS if k in file_values])
    if cfg["drift"] == "tabulated" and cfg["table_path"] is not None:
        drift, cfg["table_sha256"] = _read_tabulated(cfg["table_path"])
        return drift
    params = {k: cfg[k] for k in _drift_params(cfg["drift"]) if cfg.get(k) is not None}
    if "c" in params:
        c = params["c"]
        params["c"] = c[0] if len(c) == 1 else c
    return drift_from_name(cfg["drift"], **params)


def _initial_from_config(cfg: dict):
    keys = ("initial_x", "initial_v")
    if all(cfg.get(key) is None for key in keys):
        return None
    d = check_int("d", cfg["d"], 1)
    state = []
    for key in keys:
        values = (0.0,) * d if cfg.get(key) is None else cfg[key]
        if len(values) != d:
            raise ConfigError(f"{key} must have d={d} entries, got {len(values)}")
        state.append([check_real(key, value) for value in values])
    return PhaseState(*state)


def _csv_text(header, rows) -> str:
    """CSV text of one header line and one line per row, each cell as `_canon`."""
    return "".join(_canon(row) + "\n" for row in (header, *rows))


def _rate_csv(report) -> str:
    """One row per level: n, error, se."""
    return _csv_text(("n", "error", "se"),
                     zip(report.levels, report.errors, report.errors_se))


def _rate_summary(report) -> dict:
    """JSON-ready summary: slope with uncertainty plus the level table."""
    return {
        "exact": report.exact,
        "slope": None if math.isnan(report.slope) else report.slope,
        "slope_se": None if math.isnan(report.slope_se) else report.slope_se,
        "slope_label": report.slope_label,
        "levels": list(report.levels),
        "errors": list(report.errors),
        "errors_se": list(report.errors_se),
        "metadata": report.metadata,
    }


class Check:
    """One named pass/fail verdict with a human-readable detail line."""

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _slope_checks(report, min_slope, max_slope_se, max_slope=None, tag="") -> list[Check]:
    """Bounds on a report's slope, named min_<tag>slope, max_<tag>slope, max_<tag>slope_se.

    An exact report passes the slope bounds vacuously and skips the se bound.
    """
    checks = []
    for name, bound, op in ((f"min_{tag}slope", min_slope, ">="),
                            (f"max_{tag}slope", max_slope, "<=")):
        if bound is None:
            continue
        if report.exact:
            checks.append(Check(name, True,
                                "errors at exact-reproduction scale; slope check vacuous"))
        else:
            ok = report.slope >= bound if op == ">=" else report.slope <= bound
            checks.append(Check(name, ok, f"slope {report.slope:.4f} vs required {op} {bound}"))
    if max_slope_se is not None and not report.exact:
        checks.append(Check(
            f"max_{tag}slope_se", report.slope_se < max_slope_se,
            f"slope_se {report.slope_se:.4f} vs required < {max_slope_se}"))
    return checks


def cmd_simulate(cfg: dict, threads: int, drift):
    grid = GridSpec(n=cfg["n"], horizon=cfg["horizon"], d=cfg["d"])
    n, d, horizon = grid.n, grid.d, grid.horizon
    md = mollify(drift, n, cfg["theta"], d=d)
    initial = _initial_from_config(cfg)
    sample_at = cfg.get("sample_at")
    if sample_at is not None and (sample_at < n or sample_at % n):
        raise ConfigError(f"sample_at must be a multiple of n={n}, got {sample_at}")
    paths = check_int("paths", cfg["paths"], 1)

    def outputs():
        for j in range(paths):
            stream = stream_key(ROLE_SIMULATE, j)
            if sample_at is None or sample_at == n:
                path = sample_path(grid, cfg["seed"], stream)
            else:
                fine = sample_path(GridSpec(n=sample_at, horizon=horizon, d=d),
                                   cfg["seed"], stream)
                path = coarsen(fine, sample_at // n)
            traj = integrate(md, path, initial, cfg["quad_order"])
            _check_finite(drift, n, j, traj.x[-1:], traj.v[-1:])
            buf = io.StringIO()
            trajectory_to_csv(traj, buf)
            yield f"path_{j:04d}.csv", buf.getvalue()

    summary = {"paths": paths, "n": n, "drift": drift.drift_id}
    return outputs(), [], summary


def cmd_strong_rate(cfg: dict, threads: int, drift):
    report = strong_error(
        drift, cfg["theta"], cfg["levels"], cfg["n_ref"], m=cfg["m"],
        samples=cfg["samples"], seed=cfg["seed"], d=cfg["d"],
        horizon=cfg["horizon"], reference=cfg["reference"],
        initial=_initial_from_config(cfg), quad_order=cfg["quad_order"],
        threads=threads, bootstrap=cfg["bootstrap"],
    )
    checks = _slope_checks(report, cfg["min_slope"], cfg["max_slope_se"])
    return {"rates.csv": _rate_csv(report)}.items(), checks, _rate_summary(report)


def cmd_weak_rate(cfg: dict, threads: int, drift):
    result = weak_error(
        drift, cfg["theta"], cfg["levels"], cfg["n_ref"], t_eval=cfg["t_eval"],
        samples=cfg["samples"], seed=cfg["seed"], ref_samples=cfg["ref_samples"],
        d=cfg["d"], horizon=cfg["horizon"], initial=_initial_from_config(cfg),
        quad_order=cfg["quad_order"], threads=threads,
    )
    outputs = {}
    for idx, report in enumerate(result.reports):
        name = "rates.csv" if len(result.reports) == 1 else f"rates_t{idx}.csv"
        outputs[name] = _rate_csv(report)
    outputs["detail.csv"] = _csv_text(
        ("t", "level", "f", "mean_ref", "se_ref", "mean_level", "se_level", "err", "se"),
        (astuple(o) for o in result.observations))
    checks = _slope_checks(result.primary, cfg["min_slope"], cfg["max_slope_se"])
    if cfg["max_null_sigma"] is not None:
        sig = max(o.err / o.se for o in result.observations if o.se > 0)
        checks.append(Check("max_null_sigma", sig <= cfg["max_null_sigma"],
                            f"max |err|/se {sig:.3f} vs allowed <= {cfg['max_null_sigma']}"))
    summary = {
        "reports": [_rate_summary(r) for r in result.reports],
        "tv_sq_proxy": list(result.tv_sq_proxy),
        "t_eval": list(result.t_eval),
    }
    return outputs.items(), checks, summary


def cmd_taming_demo(cfg: dict, threads: int, drift):
    demo = taming_demo(cfg["levels"], samples=cfg["samples"], seed=cfg["seed"],
                       horizon=cfg["horizon"], d=cfg["d"])
    outputs = {"uncorrected.csv": _rate_csv(demo.uncorrected),
               "shifted.csv": _rate_csv(demo.shifted),
               "gaps.csv": _csv_text(("n", "gap", "se"), zip(
                   demo.uncorrected.levels, demo.gap_means, demo.gap_ses))}
    checks = (_slope_checks(demo.uncorrected, cfg["min_i_slope"], None,
                            cfg["max_i_slope"], tag="i_")
              + _slope_checks(demo.shifted, cfg["min_j_slope"], None, tag="j_"))
    if cfg["check_gaps"]:
        ok = all(g >= -2.0 * s for g, s in zip(demo.gap_means, demo.gap_ses))
        worst = min(
            (g + 2.0 * s for g, s in zip(demo.gap_means, demo.gap_ses)), default=0.0)
        checks.append(Check("shift_no_worse", ok,
                            f"min over levels of gap+2se = {worst:.3g} (needs >= 0)"))
    summary = {
        "uncorrected": _rate_summary(demo.uncorrected),
        "shifted": _rate_summary(demo.shifted),
        "gap_means": list(demo.gap_means),
        "gap_ses": list(demo.gap_ses),
    }
    return outputs.items(), checks, summary


def cmd_kernel_check(cfg: dict, threads: int, drift):
    probes, points = check_int("probes", cfg["probes"], 1), cfg["points"]
    rng = np.random.default_rng(cfg["seed"])
    rows = []

    value = float(kernel_density(1.0, x=np.zeros(1), v=np.zeros(1)))
    target = math.sqrt(3.0) / math.pi
    rows.append(("density_origin_t1", abs(value - target), 1e-12))
    for t in (0.5, 1.0):
        rows.append((f"mass_d1_t{t}",
                     abs(float(kernel_mass(t, d=1, points=points)) - 1.0), 1e-8))
    rows.append(("mass_d2_t1", abs(float(kernel_mass(1.0, d=2, points=97)) - 1.0), 1e-8))

    worst_scaling = 0.0
    worst_cov = 0.0
    for _ in range(probes):
        t = float(rng.uniform(0.1, 2.0))
        z = PhaseState(x=rng.normal(size=1) * t**1.5, v=rng.normal(size=1) * t**0.5)
        worst_scaling = max(worst_scaling, float(scaling_identity_error(t, z)))
        worst_cov = max(worst_cov, float(covariance_form_error(t, z)))
    rows.append(("scaling_identity", worst_scaling, 1e-12))
    rows.append(("covariance_form", worst_cov, 1e-10))

    for px, pv in ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf)):
        fitted, expected, _ = kernel_norm_exponent_fit(
            MixedExponent(px, pv), points=points)
        tol = 0.05 * max(1.0, abs(expected))
        label = "inf" if math.isinf(px) else f"{px:g}"
        rows.append((f"norm_exponent_p{label}", abs(fitted - expected), tol))

    checks = [Check(name, err <= tol, f"error {err:.3g} vs tolerance {tol:.3g}")
              for name, err, tol in rows]
    text = _csv_text(("check", "error", "tolerance", "passed"),
                     (row + (chk.passed,) for row, chk in zip(rows, checks)))
    summary = {"checks": [c.as_dict() for c in checks]}
    return {"kernel_checks.csv": text}.items(), checks, summary


def cmd_tv_proxy(cfg: dict, threads: int, drift):
    report = tv_proxy(
        drift, cfg["theta"], cfg["n"], cfg["n_ref"], t=cfg["t"], bins=cfg["bins"],
        samples=cfg["samples"], seed=cfg["seed"], d=cfg["d"],
        initial=_initial_from_config(cfg), quad_order=cfg["quad_order"],
        threads=threads, radius_sds=cfg["radius_sds"],
    )
    text = _csv_text(
        ("n", "n_ref", "t", "bins", "estimate", "diagnostic_2x", "noise_floor"),
        [(cfg["n"], cfg["n_ref"], cfg["t"], report.bins,
          report.estimate, report.diagnostic, report.noise_floor)])
    summary = {
        "estimate": report.estimate,
        "diagnostic_2x": report.diagnostic,
        "noise_floor": report.noise_floor,
        "metadata": report.metadata,
    }
    return {"tv.csv": text}.items(), [], summary


_DISPATCH = {
    "simulate": cmd_simulate,
    "strong-rate": cmd_strong_rate,
    "weak-rate": cmd_weak_rate,
    "taming-demo": cmd_taming_demo,
    "kernel-check": cmd_kernel_check,
    "tv-proxy": cmd_tv_proxy,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="kinetic-em",
        description="Experiment harness for the tamed transport-shifted scheme",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="INI config file ([common] + subcommand sections)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int,
                        help="worker threads (overrides config; default 1); "
                             "outputs do not depend on it")
    parser.add_argument("--out", help="output root directory (default: runs)")
    return parser.parse_args(argv)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".manifest-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Outputs are written in batches of about this many bytes.  On a 2-core VM,
# a write after each of simulate's 800 paths cost about 10% more wall time
# than writing in bursts, while holding every text cost 8 MB of memory.
_WRITE_BATCH_BYTES = 1 << 20


def _write_outputs(outdir: str, outputs) -> dict:
    """Hash each (name, text) of `outputs` as it arrives and write it into outdir.

    Texts are held until about _WRITE_BATCH_BYTES are pending.  If an
    output fails, the files and directories this call made are removed
    before the error propagates, so a failed run leaves no output directory.
    Returns name -> sha256 of the file's bytes.
    """
    made = []
    parent = outdir
    while parent and not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(outdir, exist_ok=True)
    checksums = {}
    pending = []
    written = []

    def write_pending():
        for name, data in pending:
            written.append(os.path.join(outdir, name))
            with open(written[-1], "wb") as fh:
                fh.write(data)
        pending.clear()

    try:
        size = 0
        for name, text in outputs:
            data = text.encode("utf-8")
            checksums[name] = hashlib.sha256(data).hexdigest()
            pending.append((name, data))
            size += len(data)
            if size >= _WRITE_BATCH_BYTES:
                write_pending()
                size = 0
        write_pending()
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        for directory in made:
            os.rmdir(directory)
        raise
    return checksums


def main(argv=None) -> int:
    args = _parse_args(argv)
    sub = args.subcommand
    try:
        file_values = load_config(args.config, sub) if args.config else {}
        flags = {"seed": args.seed, "threads": args.threads, "out": args.out}
        cfg = effective_config(sub, file_values, flags)
        if not 0 <= cfg["seed"] < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {cfg['seed']}")
        drift = _resolve_drift_config(cfg, file_values)
        threads = check_int("threads", cfg["threads"], 1)
        digest = config_hash(cfg)

        start = time.monotonic()
        outputs, checks, summary = _DISPATCH[sub](cfg, threads, drift)
        outdir = os.path.join(cfg["out"], f"{sub}-{digest}")
        checksums = _write_outputs(outdir, outputs)
        wall = time.monotonic() - start

        manifest = {
            "tool": "kinetic-em",
            "version": __version__,
            "subcommand": sub,
            "config_hash": digest,
            "seed": cfg["seed"],
            "wall_clock_s": wall,
            "outputs": checksums,
            "config": {k: _canon(v) for k, v in sorted(cfg.items())},
            "checks": [c.as_dict() for c in checks],
            "passed": all(c.passed for c in checks),
            "summary": summary,
            # what ran; outside config_hash and the output checksums
            "telemetry": {"backend": backend_name(),
                          "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                                       "mpmath": mpmath.__version__},
                          "threads": worker_count(threads),
                          "threads_requested": threads,
                          # ru_maxrss is in kilobytes on Linux
                          "peak_rss_mb":
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        }
        _atomic_write(os.path.join(outdir, "manifest.json"),
                      json.dumps(manifest, indent=2).encode("utf-8"))
    except KineticEmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    for chk in checks:
        state = "PASS" if chk.passed else "FAIL"
        print(f"[check] {chk.name}: {state} ({chk.detail})")
    print(f"wrote {len(checksums) + 1} files to {outdir}")
    failures = [c for c in checks if not c.passed]
    for chk in failures:
        print(f"FAIL {chk.name}: {chk.detail}", file=sys.stderr)
    return 1 if failures else 0
