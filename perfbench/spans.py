"""Span tracer for the benchmark.

The tracer wraps canclab's public functions in the namespaces of the
modules that call them (``canclab.harness`` and ``canclab.training``), so
nothing under ``src/`` changes. Spans stay in memory and are rolled up into
per-layer totals when a traced pass ends.

A hook whose target no longer exists is recorded as missing. A metric whose
every hook is missing is reported missing, never as 0, so a refactor that
folds or renames a function stays visible in the benchmark's output.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    rows: int = 0
    nbytes: int = 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows_of(pos, name):
    return lambda args, kwargs, result: (len(_arg(args, kwargs, pos, name)), 0)


def _written(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "ds")), os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read(args, kwargs, result):
    return len(result), os.path.getsize(_arg(args, kwargs, 0, "path"))


def _no_rows(args, kwargs, result):
    return 0, 0


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` and record each call as span ``span``."""

    module: str
    attr: str
    span: str
    count: object = _no_rows


H, T, D = "canclab.harness", "canclab.training", "canclab.data"

HOOKS = (
    # the benchmark's own entry points
    Hook(H, "run_experiment", "harness.run_experiment"),
    Hook(H, "gen_data", "harness.gen_data"),
    Hook(D, "read_dataset", "data.read_dataset", _read),
    # called by the harness
    Hook(H, "prepare_data", "harness.prepare_data"),
    Hook(H, "generate_scene", "data.generate_scene"),
    Hook(H, "build_mask_dataset", "data.build_mask_dataset"),
    Hook(H, "split_dataset", "data.split_dataset"),
    Hook(H, "inject", "noise.inject"),
    Hook(H, "write_dataset", "data.write_dataset", _written),
    Hook(H, "train", "training.train"),
    Hook(H, "dataset_metrics", "training.dataset_metrics", _rows_of(1, "ds")),
    Hook(H, "predict_dataset", "training.predict_dataset", _rows_of(1, "patches")),
    Hook(H, "confusion", "metrics.confusion"),
    Hook(H, "prf1", "metrics.prf1"),
    Hook(H, "scene_sp_iou", "metrics.scene_sp_iou"),
    # called by the training loop
    Hook(T, "canc_iteration", "training.iteration", _rows_of(2, "batch")),
    Hook(T, "coteaching_iteration", "training.iteration", _rows_of(2, "batch")),
    Hook(T, "select_clean", "training.select"),
    Hook(T, "select_swap", "training.select"),
    Hook(T, "per_sample_loss", "nn.per_sample_loss", _rows_of(1, "batch")),
    Hook(T, "sgd_step", "nn.sgd_step", _rows_of(1, "batch")),
    Hook(T, "predict", "nn.predict", _rows_of(1, "x")),
    Hook(T, "dataset_metrics", "training.dataset_metrics", _rows_of(1, "ds")),
    Hook(T, "predict_dataset", "training.predict_dataset", _rows_of(1, "patches")),
    Hook(T, "confusion", "metrics.confusion"),
    Hook(T, "prf1", "metrics.prf1"),
)

# Per-call durations are kept for these spans, for their median and tail.
POOLED = ("nn.sgd_step", "training.iteration")

# Phase rollups. A span named here counts its whole duration to the phase
# unless an enclosing span already counted it; the spans in SELF_PHASE count
# only their self time. Together they partition harness.run_experiment.
PHASE_OF = {
    "harness.prepare_data": "data_prep",
    "data.generate_scene": "data_prep",
    "data.build_mask_dataset": "data_prep",
    "data.split_dataset": "data_prep",
    "noise.inject": "data_prep",
    "nn.per_sample_loss": "rank_forward",
    "training.select": "rank_forward",
    "nn.sgd_step": "peer_update",
    "training.dataset_metrics": "epoch_eval",
    "training.predict_dataset": "epoch_eval",
    "nn.predict": "epoch_eval",
    "metrics.confusion": "epoch_eval",
    "metrics.prf1": "epoch_eval",
    "metrics.scene_sp_iou": "epoch_eval",
}
SELF_PHASE = {
    "training.train": "data_prep",  # batch gather, shuffling, network init
    "training.iteration": "peer_update",  # assembling the peer's update batch
    "harness.run_experiment": "report_io",  # report building and file writes
}
PHASES = ("rank_forward", "peer_update", "epoch_eval", "data_prep", "report_io")


class Tracer:
    """Context manager: installs the hooks on entry, records spans while
    active, and restores the original functions on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.missing_hooks = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.rows, span.nbytes = count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            target = getattr(module, hook.attr, None)
            if not callable(target):
                self.missing_hooks.append(f"{hook.module}.{hook.attr}")
                continue
            setattr(module, hook.attr, self.wrap(hook.span, target, hook.count))
            self._patched.append((module, hook.attr, target))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, target = self._patched.pop()
            setattr(module, attr, target)

    def missing_spans(self):
        """Span names none of whose hooks found a target."""
        present = {h.span for h in self.hooks if f"{h.module}.{h.attr}" not in self.missing_hooks}
        return sorted({h.span for h in self.hooks} - present)


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _union_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def summarize(spans):
    """Roll one traced pass up into per-span-name totals and phase totals.

    A span nested inside another of the same name counts only once.
    Times are in milliseconds.
    """
    selfs = self_times(spans)
    names = {}
    phases = dict.fromkeys(PHASES, 0.0)
    for i, s in enumerate(spans):
        up = [spans[a].name for a in _ancestors(spans, i)]
        ms = (s.end - s.start) * 1e3
        entry = names.setdefault(
            s.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "rows": 0, "bytes": 0, "samples_ms": []}
        )
        entry["self_ms"] += selfs[i] * 1e3
        if s.name not in up:
            entry["ms"] += ms
            entry["calls"] += 1
            entry["rows"] += s.rows
            entry["bytes"] += s.nbytes
            if s.name in POOLED:
                entry["samples_ms"].append(ms)
        claimed = any(n in PHASE_OF for n in up)
        if not claimed and s.name in PHASE_OF:
            phases[PHASE_OF[s.name]] += ms
        elif not claimed and s.name in SELF_PHASE:
            phases[SELF_PHASE[s.name]] += selfs[i] * 1e3
    for entry in names.values():
        if not entry["samples_ms"]:
            del entry["samples_ms"]
    return {"spans": names, "phases": phases}


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """(p, value) for the highest percentile p in the ladder that has at
    least min_beyond samples ranked above it; None when even the lowest
    rung lacks them. Values are nearest-rank percentiles."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in ladder:
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= min_beyond:
            best = (p, ordered[rank - 1])
    return best
