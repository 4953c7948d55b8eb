import glob
import io
import json
import os
import re

import mpmath
import numpy as np
import pytest
import scipy

from kinetic_em import backend_name, cli
from kinetic_em.cli import config_hash, effective_config, load_config, main
from kinetic_em.errors import ConfigError, DomainError
from kinetic_em.paths import GridSpec, prefix_integrals, sample_path
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
    assert (m1["telemetry"]["threads"], m8["telemetry"]["threads"]) == (1, 8)


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
    pytest.param("tv-proxy", "t = 0.3\nn = 16\n", [],
                 "t must be a whole number of steps at n=16", id="tv-t-off-grid"),
    pytest.param("strong-rate", _SIGN_SMALL + "reference = self\nhorizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-strong"),
    pytest.param("weak-rate", _SIGN_SMALL + "horizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-weak"),
    pytest.param("simulate", "horizon = 0.3\n", [],
                 "horizon must be a whole number of steps at n=8", id="horizon-off-grid-simulate"),
])
def test_bad_input_exits_two_naming_the_key(tmp_path, capsys, sub, section, flags, message):
    # `message` starts with the key and must start a word of the error, so
    # that "n must" is not found inside, say, "dimension must"
    cfg = _write(tmp_path / "cfg.ini", f"[{sub}]\n{section}")
    out = str(tmp_path / "r")
    assert main([sub, "--config", cfg, "--out", out, *flags]) == 2
    assert re.search(r"\b" + re.escape(message), capsys.readouterr().err)
    assert not os.path.exists(out)
