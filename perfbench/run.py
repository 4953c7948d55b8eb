"""End-to-end and per-layer benchmark of the kinetic-em command line.

Each workload is one fixed `kinetic-em` subcommand config (configs/*.ini).
A run repeats it, each time in a fresh Python process that calls
`kinetic_em.cli.main`, for about --seconds seconds, checks every output, and
prints a metric table followed, as its last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, path_steps_per_s,
peak_rss_mb, setup_s).  --trace 1 alternates untraced and traced calls and
reports the per-layer metrics of tracing.py.  --workload all runs every
workload in turn.  --smoke swaps in tiny configs for the benchmark's own
tests.  Raw samples, the environment record and the spans of the last traced
call are written under .perfbench_work/results/.

Usage: python3 perfbench/run.py --workload weak-sign --seed 20260814 \
           --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 20260814  # the acceptance gate's master seed
MIN_REPEATS = 3          # fewest timed CLI calls per --trace 0 run
DEADLINE_S = 165.0       # a run never outlives this, even if a call hangs


@dataclass(frozen=True)
class Workload:
    subcommand: str
    threads: int
    path_steps: int          # scheme steps summed over paths and levels
    outputs: tuple[str, ...]  # output files besides manifest.json
    exact: dict               # per-layer counts a traced call must reproduce
    smoke_path_steps: int
    smoke_outputs: tuple[str, ...]
    smoke_exact: dict = field(default_factory=dict)


def _paths(count: int) -> tuple[str, ...]:
    return tuple(f"path_{j:04d}.csv" for j in range(count))


WORKLOADS = {
    "weak-sign": Workload(
        "weak-rate", 2, 22_960_000, ("detail.csv", "rates.csv"),
        {"rng.normal_words.words": 45_920_000, "rng.normal_words.calls": 45_000},
        9_200, ("detail.csv", "rates.csv"),
        {"rng.normal_words.words": 18_400, "rng.normal_words.calls": 500},
    ),
    "strong-ou": Workload(
        "strong-rate", 1, 15_040_000, ("rates.csv",),
        {"rng.normal_words.words": 20_480_000, "rng.normal_words.calls": 40_000},
        4_400, ("rates.csv",),
        {"rng.normal_words.words": 6_400, "rng.normal_words.calls": 200},
    ),
    "strong-osc": Workload(
        "strong-rate", 1, 12_000, ("rates.csv",),
        {"drifts.mollify_evaluate_arrays.points": 393_216_000},
        3_000, ("rates.csv",),
        {"drifts.mollify_evaluate_arrays.points": 24_576_000},
    ),
    "simulate-sign": Workload(
        "simulate", 1, 204_800, _paths(800),
        {"steppers.mean_batch": 1, "steppers.step_closed_form.calls": 800},
        320, _paths(20),
        {"steppers.mean_batch": 1, "steppers.step_closed_form.calls": 20},
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
PER_LAYER_UNITS = {
    "rng.normal_words.calls": "count",
    "rng.normal_words.words": "count",
    "rng.normal_words.busy_s": "s",
    "rng.words_per_s": "1/s",
    "paths.sample_increment_block.busy_s": "s",
    "paths.sample_increment_block.self_s": "s",
    "paths.sample_increment_block.streams": "count",
    "paths.coarsen_block.busy_s": "s",
    "paths.coarsen_block.calls": "count",
    "paths.sample_path.busy_s": "s",
    "paths.coarsen.busy_s": "s",
    "steppers.step_closed_form.busy_s": "s",
    "steppers.step_closed_form.calls": "count",
    "steppers.step_closed_form.path_steps": "count",
    "steppers.path_steps_per_s": "1/s",
    "steppers.mean_batch": "count",
    "integrator.step_block.self_s": "s",
    "drifts.mollify_evaluate_arrays.busy_s": "s",
    "drifts.mollify_evaluate_arrays.calls": "count",
    "drifts.mollify_evaluate_arrays.points": "count",
    "integrator.exact_linear_block.busy_s": "s",
    "integrator.integrate.busy_s": "s",
    "integrator.trajectory_to_csv.busy_s": "s",
    "integrator.trajectory_to_csv.bytes": "B",
    "rates.self_s": "s",
    "rates.concurrency": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """The benchmark itself cannot go on: no call succeeded."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """sha256 over the package sources; identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kinetic_em").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(_sha256(path).encode() + b"\n")
    return digest.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def check_outputs(outdir: Path, expected: tuple[str, ...]) -> tuple[str | None, list[str]]:
    """Digest of a CLI run's outputs and the problems found in them.

    The digest covers every output but manifest.json (which holds wall
    time).  Checked: the file set, the manifest's own checksums and verdict,
    and that each rate table has finite positive errors.
    """
    problems = []
    names = sorted(p.name for p in outdir.iterdir())
    if names != sorted(expected + ("manifest.json",)):
        return None, [f"output files {names[:5]}... differ from the expected set"]
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for name in sorted(expected):
        file_sha = _sha256(outdir / name)
        if manifest["outputs"].get(name) != file_sha:
            problems.append(f"manifest checksum of {name} does not match the file")
        digest.update(f"{name}\0{file_sha}\n".encode())
    if not manifest.get("passed"):
        problems.append("manifest reports a failed check")
    if "rates.csv" in expected:
        rows = (outdir / "rates.csv").read_text(encoding="utf-8").splitlines()[1:]
        errors = [float(row.split(",")[1]) for row in rows]
        if not errors or not all(0.0 < e < float("inf") for e in errors):
            problems.append(f"rates.csv errors not finite and positive: {errors}")
    return digest.hexdigest(), problems


class Runner:
    """Runs fresh-process calls for one workload inside a private work directory."""

    def __init__(self, name: str, seed: int, smoke: bool, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self.work = WORK / f"{name}-{os.getpid()}"
        self.config = HERE / "configs" / ("smoke" if smoke else "") / f"{name}.ini"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.calls = 0

    def child(self, cli: bool, trace: bool = False) -> dict:
        self.calls += 1
        tag = f"call{self.calls}"
        result = self.work / f"{tag}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(result)]
        outdir = self.work / tag
        if trace:
            argv.append("--trace")
        if cli:
            argv += ["--", self.workload.subcommand, "--config", str(self.config),
                     "--seed", str(self.seed), "--threads", str(self.workload.threads),
                     "--out", str(outdir)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not result.exists():
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if cli:
            runs = list(outdir.iterdir()) if outdir.is_dir() else []
            if data["exit_code"] != 0 or len(runs) != 1:
                data["error"] = f"cli exit {data['exit_code']}: {proc.stderr.strip()[-400:]}"
            else:
                data["bytes_written"] = sum(p.stat().st_size for p in runs[0].iterdir())
                expected = self.workload.smoke_outputs if self.smoke else self.workload.outputs
                data["digest"], data["problems"] = check_outputs(runs[0], expected)
            shutil.rmtree(outdir, ignore_errors=True)
        return data


def pinned_digest(name: str, seed: int, backend: str, smoke: bool) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if smoke or seed != pins["seed"]:
        return None
    return pins["digests"].get(backend, {}).get(name)


def judge(calls: list[dict], name: str, seed: int, smoke: bool) -> list[str]:
    """Mark each call ok or failed; returns the failure messages.

    At the pinned seed every call must reproduce the pinned digest of its
    backend; otherwise every call must reproduce the first good call.
    """
    failures = []
    reference = None
    for call in calls:
        if "error" not in call and not call["problems"]:
            if reference is None:
                reference = pinned_digest(name, seed, call["backend"], smoke) or call["digest"]
            if call["digest"] != reference:
                call["error"] = f"output digest {call['digest'][:12]} != {reference[:12]}"
        elif "error" not in call:
            call["error"] = "; ".join(call["problems"])
        call["ok"] = "error" not in call
        if not call["ok"]:
            failures.append(call["error"])
    return failures


def environment(runner: Runner, sample: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "backend": sample.get("backend"),
        "KINETIC_EM_BACKEND": os.environ.get("KINETIC_EM_BACKEND"),
        "versions": sample.get("versions"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": runner.workload.threads,
        "workload": runner.name,
        "seed": runner.seed,
        "smoke": runner.smoke,
    }


def _more(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Start another call if the minimum is not met or it should fit in `seconds`."""
    if len(durations) < minimum:
        return True
    return time.monotonic() - start + statistics.mean(durations) <= seconds


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    runner.child(cli=False)  # warm-up: byte-compiles the package, fills the file cache
    calls, durations = [], []
    start = time.monotonic()
    while _more(start, seconds, durations, MIN_REPEATS):
        began = time.monotonic()
        calls.append(runner.child(cli=True))
        durations.append(time.monotonic() - began)
    failures = judge(calls, runner.name, runner.seed, runner.smoke)
    good = [c for c in calls if c["ok"]]
    if not good:
        raise RunError(f"every call failed: {failures[0]}")
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    wall = statistics.median(c["wall_s"] for c in good)
    steps = runner.workload.smoke_path_steps if runner.smoke else runner.workload.path_steps
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": steps / wall,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
        "setup_s": statistics.median(setups),
    }
    samples = {"wall_s": [c["wall_s"] for c in good], "setup_s": setups,
               "peak_rss_mb": [c["peak_rss_mb"] for c in good]}
    return metrics, calls, samples


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict, list]:
    runner.child(cli=False)
    calls, durations = [], []
    start = time.monotonic()
    while _more(start, seconds, durations, 1):
        began = time.monotonic()
        plain = runner.child(cli=True)
        traced = runner.child(cli=True, trace=True)
        plain["traced"], traced["traced"] = False, True
        calls += [plain, traced]
        durations.append(time.monotonic() - began)
    failures = judge(calls, runner.name, runner.seed, runner.smoke)
    exact = runner.workload.smoke_exact if runner.smoke else runner.workload.exact
    layers, spans = [], []
    for call in calls:
        if not (call["ok"] and call["traced"]):
            continue
        metrics = tracing.layer_metrics(call["spans"])
        metrics["cli.bytes_written"] = call["bytes_written"]
        wrong = {k: metrics[k] for k, v in exact.items() if metrics[k] != v}
        if wrong:
            call["ok"] = False
            call["error"] = f"exact counts {wrong} != expected {exact}"
            failures.append(call["error"])
            continue
        layers.append(metrics)
        spans = call["spans"]
    plain = [c["wall_s"] for c in calls if c["ok"] and not c["traced"]]
    traced = [c["wall_s"] for c in calls if c["ok"] and c["traced"]]
    if not (layers and plain):
        raise RunError(f"no successful traced and untraced call pair: {failures[:1]}")
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, calls, {"wall_s": plain, "traced_wall_s": traced}, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 deadline: float) -> dict:
    runner = Runner(name, seed, smoke, deadline)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, calls, samples, spans = run_traced(runner, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, calls, samples = run_untraced(runner, seconds)
            units = END_TO_END_UNITS
            spans = None
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    failed = sum(not c["ok"] for c in calls)
    sample = next(c for c in calls if c["ok"])
    env = environment(runner, sample)
    stem = f"{'smoke-' if smoke else ''}{name}-seed{seed}-trace{int(trace)}"
    record = {"environment": env, "metrics": metrics, "samples": samples,
              "attempted": len(calls), "failed": failed,
              "digest": sample["digest"],
              "failures": [c["error"] for c in calls if not c["ok"]],
              "patched": next((c["patched"] for c in calls if "patched" in c), None)}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if spans:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"== {name}  seed={seed}  trace={int(trace)}  backend={env['backend']}  "
          f"threads={env['threads']}  nproc={env['nproc']}  git={env['git_sha'][:12]}")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:>16.6g} {units[key]}")
    print(f"  {'failed_ratio':42s} {failed / len(calls):>16.6g} 1  "
          f"({failed} of {len(calls)} calls)")
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kinetic_em" / "__init__.py").is_file():
        print(f"error: no kinetic_em package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            out[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.smoke, deadline)
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(out[names[0]] if len(names) == 1 else out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
