import glob
import hashlib
import io
import json
import math
import os
import re

import mpmath
import numpy as np
import pytest
import scipy

from kinetic_em import backend_name, cli, drifts, paths
from kinetic_em.cli import config_hash, effective_config, load_config, main
from kinetic_em.drifts import TabulatedField, save_tabulated
from kinetic_em.errors import ConfigError, DomainError
from kinetic_em.paths import GridSpec, prefix_integrals, sample_path, worker_count
from kinetic_em.rates import RateReport
from kinetic_em._rng import ROLE_SIMULATE, stream_key


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _run_dir(out_root, sub):
    dirs = glob.glob(os.path.join(out_root, f"{sub}-*"))
    assert len(dirs) == 1
    return dirs[0]


def _manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
    return lines[0], np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)


def test_load_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path / "bad.ini", "[simulate]\nbananas = 7\n")
    with pytest.raises(ConfigError):
        load_config(path, "simulate")


def test_load_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path / "bad.ini", "[simulation]\nn = 8\n")
    with pytest.raises(ConfigError):
        load_config(path, "simulate")


def test_load_config_rejects_default_section(tmp_path):
    path = _write(tmp_path / "bad.ini", "[DEFAULT]\nseed = 1\n[simulate]\nn = 8\n")
    with pytest.raises(ConfigError):
        load_config(path, "simulate")


@pytest.mark.parametrize("text,message", [
    (b"[strong-rate]\ntheta = 0.5\ntheta = 0.4\n",
     "config key 'theta' appears twice in [strong-rate] (line 3)"),
    (b"[strong-rate]\ntheta = 0.5\n[strong-rate]\nn_ref = 8\n",
     "config section [strong-rate] appears twice (line 3)"),
    (b"theta = 0.5\n[strong-rate]\n", "config line 1 comes before any [section] header"),
    (b"[strong-rate]\ngarbage\n", "config line 2 is not a 'key = value' pair"),
    (b"[strong-rate]\nn_ref = 8\n# caf\xe9\n", "bad.ini' is not UTF-8 text"),
], ids=["duplicate-key", "duplicate-section", "no-header", "no-equals", "not-utf8"])
def test_malformed_config_file_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    path = str(path)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path, "strong-rate")
    out = str(tmp_path / "r")
    assert main(["strong-rate", "--config", path, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_precedence(tmp_path):
    path = _write(tmp_path / "cfg.ini", "[common]\nseed = 5\n[simulate]\nn = 16\n")
    file_values = load_config(path, "simulate")
    cfg = effective_config("simulate", file_values,
                           {"seed": None, "threads": None, "out": None})
    assert cfg["seed"] == 5 and cfg["n"] == 16
    assert cfg["horizon"] == 1.0  # untouched default
    cfg = effective_config("simulate", file_values,
                           {"seed": 9, "threads": None, "out": "elsewhere"})
    assert cfg["seed"] == 9 and cfg["out"] == "elsewhere"


def test_config_hash_ignores_execution_knobs():
    base = effective_config("simulate", {}, {"seed": 1, "threads": None, "out": None})
    threaded = dict(base, threads=8)
    relocated = dict(base, out="other")
    reseeded = dict(base, seed=2)
    assert config_hash(base) == config_hash(threaded) == config_hash(relocated)
    assert config_hash(base) != config_hash(reseeded)


def test_simulate_zero_drift_matches_free_flow(tmp_path):
    out = str(tmp_path / "runs")
    assert main(["simulate", "--seed", "3", "--out", out]) == 0
    run = _run_dir(out, "simulate")
    header, data = _read_csv(os.path.join(run, "path_0000.csv"))
    assert header == "t,x_1,v_1"
    g = GridSpec(n=8, horizon=1.0, d=1)
    p = sample_path(g, 3, stream_key(ROLE_SIMULATE, 0))
    w, i = prefix_integrals(p.dW, p.dI, g.h)
    assert np.max(np.abs(data[:, 1] - i[:, 0])) <= 1e-11
    assert np.max(np.abs(data[:, 2] - w[:, 0])) <= 1e-11
    manifest = _manifest(run)
    assert manifest["subcommand"] == "simulate"
    assert manifest["passed"] is True
    assert set(manifest["outputs"]) == {"path_0000.csv"}
    telemetry = manifest["telemetry"]
    assert telemetry == {
        "backend": backend_name(),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "mpmath": mpmath.__version__},
        "threads": 1,
        "threads_requested": 1,
        "peak_rss_mb": telemetry["peak_rss_mb"],
    }
    assert isinstance(telemetry["peak_rss_mb"], float) and telemetry["peak_rss_mb"] > 0
    assert "telemetry" not in manifest["config"]


def test_repeated_runs_are_checksum_identical(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", "[simulate]\ndrift = sign_velocity\nn = 16\npaths = 2\n")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", out_b]) == 0
    ma = _manifest(_run_dir(out_a, "simulate"))
    mb = _manifest(_run_dir(out_b, "simulate"))
    assert ma["outputs"] == mb["outputs"]
    assert ma["config_hash"] == mb["config_hash"]


def test_simulate_sample_at_couples_shared_times(tmp_path):
    coarse = _write(tmp_path / "coarse.ini", "[simulate]\nn = 8\nsample_at = 32\n")
    fine = _write(tmp_path / "fine.ini", "[simulate]\nn = 32\n")
    out_c, out_f = str(tmp_path / "c"), str(tmp_path / "f")
    assert main(["simulate", "--config", coarse, "--seed", "2", "--out", out_c]) == 0
    assert main(["simulate", "--config", fine, "--seed", "2", "--out", out_f]) == 0
    _, dc = _read_csv(os.path.join(_run_dir(out_c, "simulate"), "path_0000.csv"))
    _, df = _read_csv(os.path.join(_run_dir(out_f, "simulate"), "path_0000.csv"))
    # zero drift: both runs are exact functions of the same fine increments
    assert np.max(np.abs(dc - df[::4])) <= 1e-12


def test_simulate_rejects_bad_sample_at(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", "[simulate]\nn = 8\nsample_at = 12\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_strong_rate_exact_oracle_passes_slope_check(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[strong-rate]\n"
        "levels = 16, 32, 64\n"
        "n_ref = 64\n"
        "samples = 300\n"
        "min_slope = 0.45\n"
        "max_slope_se = 0.2\n"
    ))
    out = str(tmp_path / "runs")
    assert main(["strong-rate", "--config", cfg, "--seed", "1", "--out", out]) == 0
    run = _run_dir(out, "strong-rate")
    manifest = _manifest(run)
    assert manifest["passed"] is True
    assert manifest["summary"]["slope"] >= 0.45
    header, data = _read_csv(os.path.join(run, "rates.csv"))
    assert header == "n,error,se"
    assert np.array_equal(data[:, 0], [16, 32, 64])


def test_failing_check_exits_one(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[strong-rate]\nlevels = 16, 32, 64\nn_ref = 64\nsamples = 300\nmin_slope = 5.0\n"
    ))
    out = str(tmp_path / "runs")
    assert main(["strong-rate", "--config", cfg, "--seed", "1", "--out", out]) == 1
    manifest = _manifest(_run_dir(out, "strong-rate"))
    assert manifest["passed"] is False


def test_weak_rate_writes_rates_and_detail(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[weak-rate]\nlevels = 8, 16\nn_ref = 32\nsamples = 1500\n"
    ))
    out = str(tmp_path / "runs")
    assert main(["weak-rate", "--config", cfg, "--seed", "6", "--out", out]) == 0
    run = _run_dir(out, "weak-rate")
    header, _ = _read_csv(os.path.join(run, "rates.csv"))
    assert header == "n,error,se"
    with open(os.path.join(run, "detail.csv"), encoding="utf-8") as fh:
        detail_header = fh.readline().strip()
    assert detail_header == "t,level,f,mean_ref,se_ref,mean_level,se_level,err,se"


def test_taming_demo_shift_improves_rate(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[taming-demo]\nlevels = 16, 64, 256\nsamples = 30000\n"
        "min_i_slope = 0.85\nmax_i_slope = 1.15\nmin_j_slope = 1.30\n"
    ))
    out = str(tmp_path / "runs")
    assert main(["taming-demo", "--config", cfg, "--seed", "5", "--out", out]) == 0
    run = _run_dir(out, "taming-demo")
    manifest = _manifest(run)
    assert manifest["passed"] is True
    assert [c["name"] for c in manifest["checks"]] == [
        "min_i_slope", "max_i_slope", "min_j_slope", "shift_no_worse"]
    assert manifest["summary"]["shifted"]["slope"] > manifest["summary"]["uncorrected"]["slope"]
    for name in ("uncorrected.csv", "shifted.csv", "gaps.csv"):
        assert os.path.exists(os.path.join(run, name))


def test_kernel_check_passes(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", "[kernel-check]\nprobes = 200\n")
    out = str(tmp_path / "runs")
    assert main(["kernel-check", "--config", cfg, "--out", out]) == 0
    manifest = _manifest(_run_dir(out, "kernel-check"))
    assert manifest["passed"] is True
    assert all(c["passed"] for c in manifest["checks"])


def test_tv_proxy_writes_single_row(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[tv-proxy]\nn = 8\nn_ref = 16\nbins = 8\nsamples = 4800\n"
    ))
    out = str(tmp_path / "runs")
    assert main(["tv-proxy", "--config", cfg, "--seed", "2", "--out", out]) == 0
    run = _run_dir(out, "tv-proxy")
    header, data = _read_csv(os.path.join(run, "tv.csv"))
    assert data.shape[0] == 1
    assert "estimate" in header


def test_thread_count_does_not_change_outputs(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", (
        "[strong-rate]\ndrift = sign_velocity\nreference = self\n"
        "levels = 8, 16\nn_ref = 32\nsamples = 256\n"
    ))
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    assert main(["strong-rate", "--config", cfg, "--seed", "7",
                 "--threads", "1", "--out", out1]) == 0
    assert main(["strong-rate", "--config", cfg, "--seed", "7",
                 "--threads", "8", "--out", out8]) == 0
    p1 = os.path.join(_run_dir(out1, "strong-rate"), "rates.csv")
    p8 = os.path.join(_run_dir(out8, "strong-rate"), "rates.csv")
    with open(p1, "rb") as fh:
        b1 = fh.read()
    with open(p8, "rb") as fh:
        b8 = fh.read()
    assert b1 == b8
    m1 = _manifest(_run_dir(out1, "strong-rate"))
    m8 = _manifest(_run_dir(out8, "strong-rate"))
    assert m1["outputs"] == m8["outputs"]
    assert m1["config_hash"] == m8["config_hash"]
    assert (m1["telemetry"]["threads_requested"], m8["telemetry"]["threads_requested"]) == (1, 8)
    assert (m1["telemetry"]["threads"], m8["telemetry"]["threads"]) == (1, worker_count(8))
    assert 1 <= worker_count(8) <= 8


def test_threads_beyond_usable_cpus_run_on_fewer_workers(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "cfg.ini", (
        "[weak-rate]\ndrift = sign_velocity\nlevels = 4, 8\nn_ref = 8\nsamples = 1200\n"
    ))
    out1, out4 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert main(["weak-rate", "--config", cfg, "--threads", "1", "--out", out1]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pools = []
    executor = paths.ThreadPoolExecutor

    def recording_executor(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(paths, "ThreadPoolExecutor", recording_executor)
    assert main(["weak-rate", "--config", cfg, "--threads", "4", "--out", out4]) == 0
    # a pool of one worker still runs the executor path
    assert pools and set(pools) == {1}
    run1, run4 = _run_dir(out1, "weak-rate"), _run_dir(out4, "weak-rate")
    for name in ("rates.csv", "detail.csv"):
        with open(os.path.join(run1, name), "rb") as a, open(os.path.join(run4, name), "rb") as b:
            assert a.read() == b.read(), name
    m4 = _manifest(run4)
    assert m4["outputs"] == _manifest(run1)["outputs"]
    assert (m4["telemetry"]["threads"], m4["telemetry"]["threads_requested"]) == (1, 4)


def test_simulate_failing_midway_leaves_no_output_directory(tmp_path, monkeypatch):
    # with a batch of one byte simulate writes each path as it is computed; a
    # later path's failure must remove the files and directories already made
    monkeypatch.setattr(cli, "_WRITE_BATCH_BYTES", 1)
    calls = []
    integrate = cli.integrate

    def integrate_until_third(md, path, *args):
        calls.append(path.stream_id)
        if len(calls) == 3:
            raise DomainError("path 2 left the table")
        return integrate(md, path, *args)

    monkeypatch.setattr(cli, "integrate", integrate_until_third)
    cfg = _write(tmp_path / "cfg.ini", "[simulate]\npaths = 5\n")
    out = tmp_path / "runs" / "nested"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert calls == [stream_key(ROLE_SIMULATE, j) for j in range(3)]
    assert not (tmp_path / "runs").exists()


def test_unknown_config_key_exits_two(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", "[simulate]\nwibble = 1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_missing_table_path_exits_two(tmp_path):
    cfg = _write(tmp_path / "cfg.ini", "[simulate]\ndrift = tabulated\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


_SIGN_SMALL = "drift = sign_velocity\nlevels = 4, 8\nn_ref = 8\nsamples = 100\n"
_OSC_SMALL = ("drift = oscillatory_singular\nreference = self\nlevels = 4, 8\nn_ref = 8\n"
              "samples = 100\n")
_FRICTION_SMALL = "drift = linear_friction\nlevels = 4, 8\nn_ref = 8\n"


@pytest.mark.parametrize("sub,section,flags,message", [
    pytest.param("simulate", "", ["--seed", "-1"], "seed must", id="seed-negative"),
    pytest.param("simulate", "", ["--seed", str(2**64)], "seed must", id="seed-2**64"),
    pytest.param("simulate", "paths = 0\n", [], "paths must", id="paths-zero"),
    pytest.param("simulate", "paths = -3\n", [], "paths must", id="paths-negative"),
    pytest.param("taming-demo", "horizon = nan\n", [], "horizon must", id="horizon-nan"),
    pytest.param("taming-demo", "horizon = inf\n", [], "horizon must", id="horizon-inf"),
    pytest.param("taming-demo", "d = 0\n", [], "d must", id="demo-d-zero"),
    pytest.param("taming-demo", "d = -2\n", [], "d must", id="demo-d-negative"),
    pytest.param("tv-proxy", "radius_sds = -1\n", [], "radius_sds must", id="radius-negative"),
    pytest.param("tv-proxy", "radius_sds = inf\n", [], "radius_sds must", id="radius-inf"),
    pytest.param("kernel-check", "points = 1\n", [], "points must", id="points-one"),
    pytest.param("kernel-check", "probes = 0\n", [], "probes must", id="probes-zero"),
    pytest.param("strong-rate", "m = inf\nlevels = 4, 8, 16\n", [], "m must", id="m-inf"),
    pytest.param("weak-rate", "t_eval = nan\n", [], "t_eval must", id="t_eval-nan"),
    pytest.param("weak-rate", "t_eval = inf\n", [], "t_eval must", id="t_eval-inf"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\nquad_order = 0\n", [],
                 "quad_order must", id="quad-order-zero-strong"),
    pytest.param("weak-rate", _SIGN_SMALL + "quad_order = 0\n", [], "quad_order must",
                 id="quad-order-zero-weak"),
    pytest.param("tv-proxy", "drift = sign_velocity\nn = 4\nn_ref = 8\nbins = 8\n"
                 "samples = 512\nquad_order = 0\n", [], "quad_order must",
                 id="quad-order-zero-tv"),
    pytest.param("simulate", "quad_order = 0\n", [], "quad_order must",
                 id="quad-order-zero-simulate"),
    pytest.param("strong-rate", "chunk = 64\n", [], "key 'chunk'", id="chunk-unknown"),
    pytest.param("tv-proxy", "t = nan\n", [], "t must", id="tv-t-nan"),
    pytest.param("tv-proxy", "t = inf\n", [], "t must", id="tv-t-inf"),
    pytest.param("tv-proxy", "n_ref = 0\n", [], "n_ref must", id="n_ref-zero-tv"),
    pytest.param("strong-rate", "n_ref = 0\n", [], "n_ref must", id="n_ref-zero-strong"),
    pytest.param("weak-rate", "n_ref = 0\n", [], "n_ref must", id="n_ref-zero-weak"),
    pytest.param("tv-proxy", "n = 0\n", [], "n must", id="n-zero-tv"),
    pytest.param("simulate", "n = 0\n", [], "n must", id="n-zero-simulate"),
    pytest.param("simulate", "d = 0\n", [], "d must", id="d-zero-simulate"),
    pytest.param("strong-rate", "d = 0\n", [], "d must", id="d-zero-strong"),
    pytest.param("weak-rate", "d = 0\n", [], "d must", id="d-zero-weak"),
    pytest.param("strong-rate", "d = 0\ninitial_x = 1.0\n", [], "d must",
                 id="d-zero-with-initial_x"),
    pytest.param("tv-proxy", "t = 0.3\nn = 16\n", [],
                 "t must be a whole number of steps at n=16", id="tv-t-off-grid"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\nhorizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-strong"),
    pytest.param("weak-rate", _SIGN_SMALL + "horizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-weak"),
    pytest.param("simulate", "horizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-simulate"),
    pytest.param("simulate", "horizon = 1e-12\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-no-step-simulate"),
    pytest.param("weak-rate", _SIGN_SMALL + "t_eval = 1e-12\n", [],
                 "t_eval must be a whole number of steps at n=8", id="t_eval-no-step"),
    pytest.param("strong-rate", "drift = oscillatory_singular\nkappa = nan\n", [],
                 "kappa must be finite", id="kappa-nan"),
    pytest.param("strong-rate", "drift = oscillatory_singular\nkappa = inf\n", [],
                 "kappa must be finite", id="kappa-inf"),
    pytest.param("strong-rate", "drift = oscillatory_singular\nbeta = -0.5\n", [],
                 "beta must be >= 0", id="beta-negative"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\nkappa = 3.0\n", [],
                 "key 'kappa' does not apply to drift sign_velocity", id="sign-kappa"),
    pytest.param("strong-rate", "drift = linear_friction\nbeta = 0.25\n", [],
                 "key 'beta' does not apply to drift linear_friction", id="friction-beta"),
    pytest.param("simulate", "drift = oscillatory_singular\ngamma = 1.0\n", [],
                 "key 'gamma' does not apply to drift oscillatory_singular",
                 id="oscillatory-gamma"),
    pytest.param("weak-rate", "drift = zero\nc = 1.0\n", [],
                 "key 'c' does not apply to drift zero", id="zero-c"),
    pytest.param("tv-proxy", "drift = constant\ntable_path = field.csv\n", [],
                 "key 'table_path' does not apply to drift constant", id="constant-table"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\ntheta = 0\n", [],
                 "theta must be > 0", id="theta-zero"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\ntheta = 0.9\n", [],
                 "theta must be below the admissibility bound 0.8", id="theta-inadmissible"),
    pytest.param("strong-rate", _FRICTION_SMALL + "gamma = -1\n", [], "gamma must be >= 0",
                 id="gamma-negative"),
    pytest.param("strong-rate", _FRICTION_SMALL + "gamma = inf\n", [], "gamma must be >= 0",
                 id="gamma-inf"),
    pytest.param("strong-rate", _OSC_SMALL + "beta = inf\n", [], "beta must be >= 0",
                 id="beta-inf"),
    pytest.param("simulate", "drift = constant\nc = nan\n", [], "c must be finite",
                 id="c-nan"),
    pytest.param("simulate", "initial_v = nan\n", [], "initial_v must be finite",
                 id="initial_v-nan"),
    pytest.param("simulate", "", ["--threads", "0"], "threads must", id="threads-zero"),
    pytest.param("weak-rate", _SIGN_SMALL + "t_eval = 0.3\n", [],
                 "t_eval must be a whole number of steps at n=8", id="t_eval-off-grid"),
    pytest.param("weak-rate", _SIGN_SMALL + "horizon = 0.5\n", [],
                 "t_eval must be <= horizon = 0.5", id="t_eval-past-horizon"),
    pytest.param("weak-rate", _SIGN_SMALL + "ref_samples = 50\n", [], "ref_samples must",
                 id="ref_samples-50"),
    pytest.param("strong-rate", _FRICTION_SMALL + "samples = 50\n", [], "samples must",
                 id="samples-50-strong"),
    pytest.param("weak-rate", _SIGN_SMALL.replace("samples = 100", "samples = 50"), [],
                 "samples must",
                 id="samples-50-weak"),
    pytest.param("taming-demo", "levels = 4, 8\nsamples = 50\n", [], "samples must",
                 id="samples-50-taming"),
    pytest.param("strong-rate", _FRICTION_SMALL + "bootstrap = 1\n", [], "bootstrap must",
                 id="bootstrap-one"),
    pytest.param("tv-proxy", "n = 4\nn_ref = 8\nbins = 4\nsamples = 512\n", [],
                 "bins must", id="bins-four"),
    pytest.param("tv-proxy", "n = 4\nn_ref = 8\nbins = 8\nsamples = 10\n", [],
                 "samples must be an integer >= 512", id="samples-10-tv"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\nm = 8\n", [],
                 "m must be <= min(p) - 1 = 3", id="m-above-integrability"),
    pytest.param("strong-rate", "drift = linear_friction\nlevels = 4, 8, 16\nn_ref = 16\n"
                 "samples = 100\nm = 1000\n", [],
                 "m must keep the mean m-th power of the errors in float range: at level 4 "
                 "it is 0.0", id="m-underflow"),
    pytest.param("taming-demo", "check_gaps = maybe\n", [], "check_gaps has a bad value",
                 id="check_gaps-maybe"),
    pytest.param("simulate", "drift = wobbly\n", [], "drift must be one of", id="drift-unknown"),
    pytest.param("simulate", "drift = tabulated\n", [], "table_path must be set",
                 id="table_path-missing"),
    pytest.param("taming-demo", "levels = 4, 8\nhorizon = 1.0\n", [],
                 "horizon must lie off the grid of some level", id="horizon-on-every-grid"),
])
def test_bad_input_exits_two_naming_the_key(tmp_path, capsys, sub, section, flags, message):
    # `message` starts with the key and must start a word of the error, so
    # that "n must" is not found inside, say, "dimension must"
    cfg = _write(tmp_path / "cfg.ini", f"[{sub}]\n{section}")
    out = str(tmp_path / "r")
    assert main([sub, "--config", cfg, "--out", out, *flags]) == 2
    assert re.search(r"\b" + re.escape(message), capsys.readouterr().err)
    assert not os.path.exists(out)


# Config hashes of each subcommand's defaults and of one section that sets its
# drift and stepping keys; a run directory's name must not move when the
# tables the config is built from are regrouped.
_HASH_PINS = {
    "simulate": ("drift = constant\nc = 0.5, -1.0\nd = 2\ninitial_x = 0.1, 0.2\n"
                 "quad_order = 4\n", "4ffe63e4865a", "7d0672f4a47e"),
    "strong-rate": ("drift = linear_friction\ngamma = 2.0\nd = 2\ninitial_v = 1.0, -1.0\n",
                    "987e8cdcf6e8", "006f5a15bd50"),
    "weak-rate": ("drift = oscillatory_singular\nkappa = 4.0\nbeta = 0.5\nquad_order = 6\n",
                  "1c2c79a19088", "93b0eab6b24b"),
    "taming-demo": ("d = 2\nsamples = 1000\n", "a2f58076582c", "312068db5d98"),
    "kernel-check": ("points = 129\n", "909054d70129", "c67401848f63"),
    "tv-proxy": ("drift = oscillatory_singular\nkappa = 2.0\ninitial_x = 0.5\n",
                 "7d297b8a8972", "512524a2bbcb"),
}


@pytest.mark.parametrize("sub", list(_HASH_PINS))
def test_config_hashes_are_pinned(tmp_path, sub):
    section, *pins = _HASH_PINS[sub]
    hashes = []
    for body in ("", section):
        path = _write(tmp_path / "cfg.ini", f"[{sub}]\n{body}")
        file_values = load_config(path, sub)
        cfg = effective_config(sub, file_values, {"seed": None, "threads": None, "out": None})
        cli._resolve_drift_config(cfg, file_values)
        hashes.append(config_hash(cfg))
    assert hashes == pins


# sha256 of every output file but the manifest, for three small runs at seed
# 0.  None of them calls numpy's CPU-dispatched exp or sin, so the bytes are
# as portable as the golden digests of the sampler.
_OUTPUT_PINS = {
    "simulate": ("drift = sign_velocity\nn = 16\nsample_at = 64\npaths = 5\ninitial_v = 1\n", {
        "path_0000.csv": "a89ba583b26ba362440f7fa71349d05cda9440a8af19212792a584b66920ae85",
        "path_0001.csv": "7e0aad0b41b2fb559b69865e693b07e5f736fcc35b8e5a137c1a75a7c8b9de60",
        "path_0002.csv": "7e4c38ca5ac55d3f7d1a647c0aab69de357e597dd78cfb4fa66b881f80e8b96d",
        "path_0003.csv": "78c97fecb2e939602935705cbe053222486e09440c0b46b5edede03f31b726c7",
        "path_0004.csv": "6274b9c2ceefd0a4af202f259f70b2af4e8910a500e9b0c7ef03d5ff3b9bbd02",
    }),
    "strong-rate": ("levels = 4, 8, 16\nn_ref = 16\nsamples = 200\nbootstrap = 20\n", {
        "rates.csv": "f4de18cc3dd02b2c36d9cbfc59cc9147e559cb8f7f267ef7ff998d53ecc63f7b",
    }),
    "tv-proxy": ("n = 4\nn_ref = 16\nbins = 8\nsamples = 600\n", {
        "tv.csv": "6b9563d88c82c8d393cce60bebaa7bdee12af7de2aa7dc682ef8493911a954ef",
    }),
}


@pytest.mark.parametrize("sub", list(_OUTPUT_PINS))
def test_output_bytes_are_pinned(tmp_path, sub):
    section, pins = _OUTPUT_PINS[sub]
    cfg = _write(tmp_path / "cfg.ini", f"[{sub}]\n{section}")
    out = str(tmp_path / "runs")
    assert main([sub, "--config", cfg, "--out", out]) == 0
    run = _run_dir(out, sub)
    digests = {}
    for name in sorted(os.listdir(run)):
        if name != "manifest.json":
            with open(os.path.join(run, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == pins
    assert _manifest(run)["outputs"] == pins


# The per-row f-strings each report file was written with before one writer
# served them all; the writer must give the same text for any cell value.
_SPECIALS = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 0.1, 1.0 / 3.0)
_OLD_FORMATS = {
    "rates": ("n,error,se",
              lambda n, err, se: f"{n},{err!r},{se!r}\n",
              [(4, e, s) for e, s in zip(_SPECIALS, _SPECIALS[::-1])] + [(2**40, 0.5, 0.0)]),
    "detail": ("t,level,f,mean_ref,se_ref,mean_level,se_level,err,se",
               lambda t, lv, f, mr, sr, ml, sl, e, s: (
                   f"{t!r},{lv},{f},{mr!r},{sr!r},{ml!r},{sl!r},{e!r},{s!r}\n"),
               [(1.0, 16, "sin_v1", *_SPECIALS[:6]),
                (0.5, 256, "hermite_v1", *_SPECIALS[2:])]),
    "gaps": ("n,gap,se",
             lambda n, g, s: f"{n},{g!r},{s!r}\n",
             [(16, g, s) for g, s in zip(_SPECIALS, _SPECIALS[1:])]),
    "kernel": ("check,error,tolerance,passed",
               lambda name, err, tol, ok: f"{name},{err!r},{tol!r},{str(ok).lower()}\n",
               [("mass_d2_t1", e, 1e-8, e <= 1e-8) for e in _SPECIALS]),
    "tv": ("n,n_ref,t,bins,estimate,diagnostic_2x,noise_floor",
           lambda n, nr, t, b, e, d, f: f"{n},{nr},{t!r},{b},{e!r},{d!r},{f!r}\n",
           [(16, 256, 1.0, 24, 5e-324, math.nan, -0.0),
            (4, 16, 0.1, 8, math.inf, 1e22, 1.0 / 3.0)]),
}


@pytest.mark.parametrize("fmt", list(_OLD_FORMATS))
def test_csv_text_matches_the_old_formats(fmt):
    header, line, rows = _OLD_FORMATS[fmt]
    old = header + "\n" + "".join(line(*row) for row in rows)
    assert cli._csv_text(header.split(","), rows) == old


def test_rate_report_csv_and_summary():
    rep = RateReport((4, 8), (0.5, 0.25), (0.01, 0.005), 1.0, 0.125,
                     metadata={"experiment": "demo"})
    lines = cli._rate_csv(rep).splitlines()
    assert lines[0] == "n,error,se"
    assert lines[1] == "4,0.5,0.01"
    summary = cli._rate_summary(rep)
    assert summary["slope"] == 1.0
    assert summary["levels"] == [4, 8]
    nan = float("nan")
    empty = cli._rate_summary(RateReport((4, 8), (1.0, 0.5), (0.0, 0.0), nan, nan))
    assert empty["slope"] is None


def test_subcommand_and_drift_key_tables_agree():
    assert cli.SUBCOMMANDS == tuple(cli._DISPATCH) == tuple(_HASH_PINS)
    # each key a drift takes has a parser, and every drift-section key but
    # `drift` and `theta` is a key some drift takes
    taken = {k for keys in drifts._DRIFT_PARAMS.values() for k in keys}
    assert set(cli._DRIFT_SPEC) == {"drift", "theta", *taken}


@pytest.mark.parametrize("section", [
    "drift = linear_friction\ngamma = 1e200\n",
    "drift = constant\nc = 1e308\ninitial_v = 1e308\n",
], ids=["friction-nan", "constant-inf"])
def test_simulate_diverging_path_exits_two_naming_it(tmp_path, capsys, section):
    cfg = _write(tmp_path / "cfg.ini", f"[simulate]\npaths = 3\n{section}")
    out = str(tmp_path / "r")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    assert "stream index 0 ends in a non-finite state" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_oscillatory_strong_rate_runs_with_the_default_gamma(tmp_path):
    # strong-rate's gamma = 1.0 default serves linear_friction; it is not a
    # key the config file sets, so an oscillatory run must not trip on it
    cfg = _write(tmp_path / "cfg.ini", (
        "[strong-rate]\ndrift = oscillatory_singular\nkappa = 3.0\nreference = self\n"
        "levels = 4, 8\nn_ref = 16\nsamples = 100\nbootstrap = 10\n"
    ))
    out = str(tmp_path / "r")
    assert main(["strong-rate", "--config", cfg, "--out", out]) == 0
    assert _manifest(_run_dir(out, "strong-rate"))["config"]["gamma"] == "1.0"


_TABLE_ROWS = "x,v,b1\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n"


@pytest.mark.parametrize("table,message", [
    ("d,nx,nv\n1,x,2\n" + _TABLE_ROWS, "invalid literal for int()"),
    ("d,nx,nv\n1,2\n" + _TABLE_ROWS, "not enough values to unpack"),
    ("d,nx,nv\n1,2,2\n" + _TABLE_ROWS.replace("0.0,1.0,1.0", "0.0,1.0,oops"),
     "could not convert string 'oops'"),
], ids=["shape-not-int", "shape-two-values", "value-not-float"])
def test_malformed_drift_table_exits_two_naming_table_path(tmp_path, capsys, table, message):
    _write(tmp_path / "field.csv", table)
    cfg = _write(tmp_path / "cfg.ini", (
        f"[simulate]\nn = 4\ndrift = tabulated\ntable_path = {tmp_path / 'field.csv'}\n"))
    out = str(tmp_path / "r")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"table_path {str(tmp_path / 'field.csv')!r} is not a drift table" in err
    assert message in err
    assert not os.path.exists(out)


def test_tabulated_run_uses_the_table_it_hashed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    xs = np.linspace(-40.0, 40.0, 9)
    tables = {}
    for slope in (-0.5, -0.25):
        buf = io.StringIO()
        save_tabulated(TabulatedField(xs, xs, slope * np.broadcast_to(xs, (9, 9))), buf)
        tables[slope] = buf.getvalue()
    _write("field.csv", tables[-0.5])
    cfg = _write("cfg.ini", (
        "[simulate]\nn = 8\npaths = 2\ndrift = tabulated\ntable_path = field.csv\n"))
    assert main(["simulate", "--config", cfg, "--out", "plain"]) == 0
    load_tabulated = drifts.load_tabulated

    def swap_then_load(fh):
        # the file changes between the hash and the parse
        _write("field.csv", tables[-0.25])
        return load_tabulated(fh)

    monkeypatch.setattr(drifts, "load_tabulated", swap_then_load)
    assert main(["simulate", "--config", cfg, "--out", "swapped"]) == 0
    with open("field.csv", encoding="utf-8") as fh:
        assert fh.read() == tables[-0.25]
    plain = _manifest(_run_dir("plain", "simulate"))
    swapped = _manifest(_run_dir("swapped", "simulate"))
    assert swapped["config"]["table_sha256"] == \
        hashlib.sha256(tables[-0.5].encode("utf-8")).hexdigest()
    assert swapped["config_hash"] == plain["config_hash"]
    assert swapped["outputs"] == plain["outputs"]


def test_tabulated_table_contents_enter_the_config_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    xs = np.linspace(-40.0, 40.0, 9)
    table = TabulatedField(xs, xs, -0.5 * np.broadcast_to(xs, (9, 9)))
    with open("field.csv", "w", encoding="utf-8") as fh:
        save_tabulated(table, fh)
    cfg = _write("cfg.ini", (
        "[strong-rate]\ndrift = tabulated\ntable_path = field.csv\nreference = self\n"
        "levels = 4, 8\nn_ref = 16\nsamples = 100\nbootstrap = 10\n"
    ))
    assert main(["strong-rate", "--config", cfg, "--out", "runs"]) == 0
    table = TabulatedField(xs, xs, -0.25 * np.broadcast_to(xs, (9, 9)))
    with open("field.csv", "w", encoding="utf-8") as fh:
        save_tabulated(table, fh)
    assert main(["strong-rate", "--config", cfg, "--out", "runs"]) == 0
    runs = sorted(glob.glob(os.path.join("runs", "strong-rate-*")))
    assert len(runs) == 2
    rates_csv = []
    for run in runs:
        manifest = _manifest(run)
        with open(os.path.join(run, "rates.csv"), "rb") as fh:
            rates_csv.append(fh.read())
        assert manifest["outputs"]["rates.csv"] == hashlib.sha256(rates_csv[-1]).hexdigest()
        assert len(manifest["config"]["table_sha256"]) == 64
    assert rates_csv[0] != rates_csv[1]
