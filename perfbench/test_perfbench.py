"""Tests of the benchmark itself, on the tiny --smoke configs.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["rates.weak_error", 0.0, 10.0, -1, 1, None],
        ["integrator.step_block", 1.0, 4.0, 0, 2, None],   # two worker threads
        ["integrator.step_block", 3.0, 6.0, 0, 3, None],   # overlap 3..4
        ["steppers.step_closed_form", 1.5, 3.5, 1, 2, {"path_steps": 10, "batch": 5}],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 2.0])
    metrics = tracing.layer_metrics(spans)
    assert metrics["rates.self_s"] == pytest.approx(5.0)
    assert metrics["rates.concurrency"] == pytest.approx(0.6)
    assert metrics["integrator.step_block.self_s"] == pytest.approx(4.0)
    assert metrics["steppers.mean_batch"] == 5
    assert metrics["steppers.path_steps_per_s"] == pytest.approx(5.0)


def test_install_rebinds_every_importing_namespace():
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert {"kinetic_em._rng.normal_words", "kinetic_em.paths.normal_words",
                "kinetic_em.integrator.normal_words",
                "kinetic_em.rates.normal_words"} <= set(patched["rng.normal_words"])
        assert "kinetic_em.rates.step_block" in patched["integrator.step_block"]
        assert "kinetic_em.integrator.mollify_evaluate_arrays" in \
            patched["drifts.mollify_evaluate_arrays"]
        assert "kinetic_em._steppers.step_closed_form" in patched["steppers.step_closed_form"]
        from kinetic_em import paths

        paths.sample_path(paths.GridSpec(n=4), seed=1, stream_id=2)
        assert [s[0] for s in tracer.spans] == ["paths.sample_path", "rng.normal_words"]
        assert tracer.spans[1][3] == 0 and tracer.spans[1][5] == {"words": 8}
    finally:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("kinetic_em"):
                for key, value in list(vars(mod).items()):
                    if getattr(value, "__module__", None) == tracing.__name__:
                        setattr(mod, key, value.__wrapped__)


def _units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, kind):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(run.WORKLOADS)
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(kind)
    if trace:
        # the smoke exact counts held, or the run would not be correct
        assert results["simulate-sign"]["metrics"]["steppers.mean_batch"]["value"] == 1


def test_changed_output_is_a_failed_call(monkeypatch):
    calls = [{"backend": "numpy", "digest": "a" * 64, "problems": []},
             {"backend": "numpy", "digest": "b" * 64, "problems": []}]
    failures = run.judge(calls, "weak-sign", 3, smoke=False)
    assert [c["ok"] for c in calls] == [True, False] and len(failures) == 1
    pinned = [{"backend": "numpy", "digest": "a" * 64, "problems": []}]
    monkeypatch.setattr(run, "pinned_digest", lambda *a: "c" * 64)
    assert run.judge(pinned, "weak-sign", run.DEFAULT_SEED, smoke=False)
    assert not pinned[0]["ok"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "strong-ou", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
