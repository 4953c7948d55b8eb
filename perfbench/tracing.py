"""Spans around the package's public functions, recorded from outside.

`install` wraps each function listed in LAYERS and rebinds every name in every
`kinetic_em` module that refers to the original object, so calls made through
a module's own import (``rates.normal_words``, ``integrator.step_block``,
``paths.coarsen_block`` called from ``coarsen`` ...) are seen as well as calls
through the defining module.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, thread, attrs]``; `parent` is the index
of the enclosing span, or -1.  Spans are kept in memory and written out by the
caller when the run ends.  A call made on a worker thread with no open span of
its own is parented to the innermost open span of the thread that installed
the tracer, which is the experiment that started the pool.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time


def _normal_words(args, kwargs):
    count = kwargs["count"] if "count" in kwargs else args[2]
    return {"words": int(count)}


def _streams(args, kwargs):
    ids = kwargs["stream_ids"] if "stream_ids" in kwargs else args[2]
    return {"streams": len(ids)}


def _batch(args, kwargs):
    dw = kwargs["dW"] if "dW" in kwargs else args[0]
    return {"path_steps": int(dw.shape[0] * dw.shape[1]), "batch": int(dw.shape[1])}


def _drift_points(args, kwargs):
    # imported here: the benchmark's parent process never imports them
    import numpy as np
    from kinetic_em.drifts import CLOSED_FORM_KINDS

    md = kwargs["md"] if "md" in kwargs else args[0]
    x = kwargs["x"] if "x" in kwargs else args[1]
    points = kwargs.get("points", args[3] if len(args) > 3 else None)
    per_point = 1
    if md.base.kind not in CLOSED_FORM_KINDS:
        # one 2-D Gauss-Hermite rule per (point, dimension)
        per_point = (points or md.quad_points) ** 2
    return {"points": int(np.size(x)) * per_point}


def _csv_start(args, kwargs):
    fh = kwargs["fh"] if "fh" in kwargs else args[1]
    return fh, fh.tell()


def _csv_bytes(start):
    fh, pos = start
    # CSV text is ASCII, so characters written equal bytes.
    return {"bytes": fh.tell() - pos}


# span name -> (module, function, attrs before the call, attrs after the call)
LAYERS = {
    "rng.normal_words": ("kinetic_em._rng", "normal_words", _normal_words, None),
    "paths.sample_increment_block": ("kinetic_em.paths", "sample_increment_block", _streams, None),
    "paths.sample_path": ("kinetic_em.paths", "sample_path", None, None),
    "paths.coarsen": ("kinetic_em.paths", "coarsen", None, None),
    "paths.coarsen_block": ("kinetic_em.paths", "coarsen_block", None, None),
    "steppers.step_closed_form": ("kinetic_em._steppers", "step_closed_form", _batch, None),
    "integrator.step_block": ("kinetic_em.integrator", "step_block", None, None),
    "integrator.exact_linear_block": ("kinetic_em.integrator", "exact_linear_block", None, None),
    "integrator.integrate": ("kinetic_em.integrator", "integrate", None, None),
    "integrator.trajectory_to_csv": ("kinetic_em.integrator", "trajectory_to_csv",
                                     _csv_start, _csv_bytes),
    "drifts.mollify_evaluate_arrays": ("kinetic_em.drifts", "mollify_evaluate_arrays",
                                       _drift_points, None),
    "rates.strong_error": ("kinetic_em.rates", "strong_error", None, None),
    "rates.weak_error": ("kinetic_em.rates", "weak_error", None, None),
    "cli.main": ("kinetic_em.cli", "main", None, None),
}

RATES_SPANS = ("rates.strong_error", "rates.weak_error")


class Tracer:
    """Collects spans from every thread into one list."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        spans, lock = self.spans, self._lock

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else -1)
            attrs = None
            state = None
            if before is not None:
                state = before(args, kwargs)
                if after is None:
                    attrs = state
            record = [name, 0.0, 0.0, parent, threading.get_ident(), attrs]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    record[5] = after(state)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every LAYERS function; returns span name -> rebound 'module.attr' names."""
    for module, _, _, _ in LAYERS.values():
        importlib.import_module(module)
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == "kinetic_em" or key.startswith("kinetic_em.")]
    patched = {}
    for name, (module, attr, before, after) in LAYERS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, before, after)
        patched[name] = []
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched[name].append(f"{mod.__name__}.{key}")
    return patched


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(index, ())]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans.

    `cli.bytes_written` and `trace.overhead_s` are measured by the caller.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, dict[str, int]] = {}
    for (name, start, end, _, _, attrs), self_s in zip(spans, selfs):
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            acc = sums.setdefault(name, {})
            for key, value in attrs.items():
                acc[key] = acc.get(key, 0) + value

    def total(name, key):
        return sums.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    rates_ids = {i for i, span in enumerate(spans) if span[0] in RATES_SPANS}
    rates_span = sum(spans[i][2] - spans[i][1] for i in rates_ids)
    rates_children = sum(end - start for _, start, end, parent, _, _ in spans
                         if parent in rates_ids)
    steps = "steppers.step_closed_form"
    return {
        "rng.normal_words.calls": calls.get("rng.normal_words", 0),
        "rng.normal_words.words": total("rng.normal_words", "words"),
        "rng.normal_words.busy_s": busy.get("rng.normal_words", 0.0),
        "rng.words_per_s": ratio(total("rng.normal_words", "words"),
                                 busy.get("rng.normal_words", 0.0)),
        "paths.sample_increment_block.busy_s": busy.get("paths.sample_increment_block", 0.0),
        "paths.sample_increment_block.self_s": own.get("paths.sample_increment_block", 0.0),
        "paths.sample_increment_block.streams": total("paths.sample_increment_block", "streams"),
        "paths.coarsen_block.busy_s": busy.get("paths.coarsen_block", 0.0),
        "paths.coarsen_block.calls": calls.get("paths.coarsen_block", 0),
        "paths.sample_path.busy_s": busy.get("paths.sample_path", 0.0),
        "paths.coarsen.busy_s": busy.get("paths.coarsen", 0.0),
        "steppers.step_closed_form.busy_s": busy.get(steps, 0.0),
        "steppers.step_closed_form.calls": calls.get(steps, 0),
        "steppers.step_closed_form.path_steps": total(steps, "path_steps"),
        "steppers.path_steps_per_s": ratio(total(steps, "path_steps"), busy.get(steps, 0.0)),
        "steppers.mean_batch": ratio(total(steps, "batch"), calls.get(steps, 0)),
        "integrator.step_block.self_s": own.get("integrator.step_block", 0.0),
        "drifts.mollify_evaluate_arrays.busy_s": busy.get("drifts.mollify_evaluate_arrays", 0.0),
        "drifts.mollify_evaluate_arrays.calls": calls.get("drifts.mollify_evaluate_arrays", 0),
        "drifts.mollify_evaluate_arrays.points": total("drifts.mollify_evaluate_arrays", "points"),
        "integrator.exact_linear_block.busy_s": busy.get("integrator.exact_linear_block", 0.0),
        "integrator.integrate.busy_s": busy.get("integrator.integrate", 0.0),
        "integrator.trajectory_to_csv.busy_s": busy.get("integrator.trajectory_to_csv", 0.0),
        "integrator.trajectory_to_csv.bytes": total("integrator.trajectory_to_csv", "bytes"),
        "rates.self_s": sum((own[name] for name in RATES_SPANS if name in own), 0.0),
        "rates.concurrency": ratio(rates_children, rates_span),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over several traced runs (counts repeat exactly)."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
