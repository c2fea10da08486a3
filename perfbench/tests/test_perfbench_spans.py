"""Self-tests of the benchmark's tracer and statistics.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from spans import PHASES, Hook, Span, Tracer, self_times, summarize, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree():
    # run_experiment [0, 100]
    #   prepare_data [1, 11]
    #   train [12, 90]
    #     iteration [13, 43]: per_sample_loss [14, 20], select [20, 22], sgd_step [25, 40]
    #     dataset_metrics [50, 60]: predict [51, 59]
    #   dataset_metrics [91, 95]
    return [
        Span("harness.run_experiment", 0, 100, -1),
        Span("harness.prepare_data", 1, 11, 0),
        Span("training.train", 12, 90, 0),
        Span("training.iteration", 13, 43, 2),
        Span("nn.per_sample_loss", 14, 20, 3, rows=64),
        Span("training.select", 20, 22, 3),
        Span("nn.sgd_step", 25, 40, 3, rows=62),
        Span("training.dataset_metrics", 50, 60, 2),
        Span("nn.predict", 51, 59, 7),
        Span("training.dataset_metrics", 91, 95, 0),
    ]


def test_self_time_subtracts_children():
    selfs = self_times(_tree())
    assert selfs[0] == 100 - 10 - 78 - 4
    assert selfs[2] == 78 - 30 - 10
    assert selfs[3] == 30 - 6 - 2 - 15
    assert selfs[4] == 6


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0, 10, -1), Span("b", 1, 5, 0), Span("c", 4, 7, 0), Span("d", 9, 12, 0)]
    # children cover [1, 7] and [9, 10] inside the parent: 7 of 10
    assert self_times(spans)[0] == 3


def test_phases_partition_run_experiment():
    summary = summarize(_tree())
    phases = summary["phases"]
    assert set(phases) == set(PHASES)
    assert abs(sum(phases.values()) - 100e3) < 1e-6
    assert phases["rank_forward"] == (6 + 2) * 1e3
    assert phases["peer_update"] == (15 + 7) * 1e3
    assert phases["epoch_eval"] == (10 + 4) * 1e3
    assert phases["data_prep"] == (10 + 38) * 1e3
    assert phases["report_io"] == 8 * 1e3
    spans = summary["spans"]
    assert spans["training.dataset_metrics"]["calls"] == 2
    assert spans["nn.sgd_step"]["samples_ms"] == [15e3]


def test_nested_span_of_same_name_counts_once():
    spans = [Span("x", 0, 10, -1), Span("x", 2, 6, 0)]
    entry = summarize(spans)["spans"]["x"]
    assert entry["ms"] == 10e3 and entry["calls"] == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert tail_percentile(samples) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tail_percentile(range(1, 21)) == (50.0, 10)
    assert tail_percentile(range(1, 20)) is None


def test_missing_hook_is_reported_not_zeroed():
    mod = types.ModuleType("perfbench_fake_mod")
    mod.present = lambda a: a + 1
    sys.modules[mod.__name__] = mod
    try:
        original = mod.present
        tracer = Tracer(hooks=(
            Hook(mod.__name__, "present", "fake.present"),
            Hook(mod.__name__, "gone", "fake.gone"),
            Hook(mod.__name__, "also_gone", "fake.present"),
        ))
        with tracer:
            assert mod.present(1) == 2
        assert mod.present is original
        assert tracer.missing_hooks == [f"{mod.__name__}.gone", f"{mod.__name__}.also_gone"]
        assert tracer.missing_spans() == ["fake.gone"]
        assert [s.name for s in tracer.spans] == ["fake.present"]
    finally:
        del sys.modules[mod.__name__]


def _record(run_s, missing_spans=()):
    spans = _tree()
    return {
        "run_s": run_s,
        "trace": summarize(spans),
        "missing_spans": list(missing_spans),
        "missing_hooks": [],
    }


def test_layer_metrics_leave_missing_spans_out():
    untraced = [_record(1.0)]
    values, missing, _ = run.layer_metrics([_record(1.1, ["training.iteration"])], untraced)
    assert missing["training.iteration.ms"] == "hook target gone"
    assert "training.iteration.ms" not in values
    assert values["nn.sgd_step.calls"] == 1
    assert values["nn.per_sample_loss.ms"] == 6e3
    assert values["nn.forward_rows_per_update_row"] == (64 + 62) / 62
    assert values["data.write_dataset.ms"] == 0
    assert abs(values["trace.overhead"] - 1.1) < 1e-12


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w["why"] for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()


def test_gate_fails_errors_and_outputs_that_differ_from_the_first_good_repeat():
    ok = {"digest": {"epochs.csv": "a", "best_modelsel_acc": "0.5"}}
    other = {"digest": {"epochs.csv": "b", "best_modelsel_acc": "0.5"}}
    errors = run.gate([(False, None, "repeat exited 1"), (False, ok, None), (True, ok, None),
                       (False, other, None)])
    assert errors[0] == "repeat exited 1"
    assert errors[1] is None and errors[2] is None
    assert "epochs.csv" in errors[3] and "best_modelsel_acc" not in errors[3]
