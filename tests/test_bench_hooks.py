"""The benchmark's span tracer wraps canclab functions by name, in the
namespaces that call them. A rename there silently drops a per-layer metric
from a traced run, so this checks the names the bench reports against the
package, reading the bench's own tables without changing them."""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def bench_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans.HOOKS


def reported_spans():
    """The span names run.py turns into metrics: SPAN_STATS' keys and
    METRIC_SPANS, read as the literals they are in run.py."""
    with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPAN_STATS", "METRIC_SPANS")
    }
    return sorted(set(tables["SPAN_STATS"]) | set(tables["METRIC_SPANS"]))


def unhooked_spans():
    """Reported span names none of whose hook targets is a callable in
    canclab."""
    hooked = {
        hook.span
        for hook in bench_hooks()
        if callable(getattr(importlib.import_module(hook.module), hook.attr, None))
    }
    return [span for span in reported_spans() if span not in hooked]


def test_every_reported_span_has_a_hook_target():
    assert {"data.build_mask_dataset", "nn.sgd_step", "metrics.prf1"} <= set(reported_spans())
    assert unhooked_spans() == []


@pytest.mark.parametrize("module, attr, span", [
    ("canclab.harness", "build_mask_dataset", "data.build_mask_dataset"),
    ("canclab.harness", "generate_scene", "data.generate_scene"),
    ("canclab.training", "sgd_step", "nn.sgd_step"),
])
def test_a_renamed_hook_target_is_caught(monkeypatch, module, attr, span):
    monkeypatch.delattr(importlib.import_module(module), attr)
    assert unhooked_spans() == [span]
