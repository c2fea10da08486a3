"""canclab benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs repeats of one workload, each in a fresh process (child.py), for about
S seconds, checks every repeat's outputs against the first repeat's, and
prints a table followed by one JSON line. With --trace 0 the JSON holds the
end-to-end metrics (medians over repeats); with --trace 1 it holds the
per-layer metrics from traced repeats, interleaved with untraced ones so
that the tracing overhead can be reported. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PHASES, tail_percentile  # noqa: E402
from workloads import WORKLOADS, default_config  # noqa: E402

# One BLAS thread (never more than nproc) and one repeat at a time: on a
# small shared machine this keeps run-to-run spread low.
BLAS_THREADS = 1
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "masks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "fraction",
}

SPAN_STATS = {
    "nn.sgd_step": ("ms", "calls", "rows", "ms_p50", "ms_tail"),
    "nn.per_sample_loss": ("ms", "calls", "rows"),
    "nn.predict": ("ms", "rows"),
    "training.iteration": ("ms", "self_ms", "ms_p50", "ms_tail"),
    "training.select": ("ms",),
    "training.train": ("self_ms",),
    "training.dataset_metrics": ("ms",),
    "data.generate_scene": ("ms",),
    "data.build_mask_dataset": ("ms",),
    "data.split_dataset": ("ms",),
    "noise.inject": ("ms",),
    "data.write_dataset": ("ms", "MB_per_s"),
    "data.read_dataset": ("ms", "MB_per_s"),
    "harness.run_experiment": ("self_ms",),
}
STAT_UNITS = {"ms": "ms", "self_ms": "ms", "ms_p50": "ms", "ms_tail": "ms",
              "calls": "count", "rows": "count", "MB_per_s": "MB/s"}
METRIC_SPANS = ("metrics.confusion", "metrics.prf1", "metrics.scene_sp_iou")


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS.items() for stat in stats}
    units["nn.forward_rows_per_update_row"] = "ratio"
    units["metrics.ms"] = "ms"
    units.update({f"phase.{p}.ms": "ms" for p in PHASES})
    units["trace.overhead"] = "ratio"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CANCLAB_OUT", None)
    return env


def run_child(args, traced: bool, probe: bool):
    """One repeat in a fresh process: (record, None) or (None, error)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--out", os.path.join(HERE, "_work", args.workload)]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repeat timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"repeat exited {proc.returncode}: {tail}"
    return json.loads(lines[-1]), None


def run_repeats(args):
    """Repeats until the time is spent; with tracing, untraced and traced
    repeats alternate. Returns [(traced, record, error)]."""
    out, walls = [], []
    start = time.perf_counter()
    minimum = 2 * MIN_REPEATS if args.trace else MIN_REPEATS
    while True:
        elapsed = time.perf_counter() - start
        if len(out) >= minimum and elapsed + statistics.median(walls) > args.seconds:
            break
        traced = bool(args.trace) and len(out) % 2 == 1
        t0 = time.perf_counter()
        record, error = run_child(args, traced, probe=not out)
        walls.append(time.perf_counter() - t0)
        out.append((traced, record, error))
    return out


def gate(repeats):
    """Each repeat's error, or None when it ran and its outputs equal the
    first good repeat's."""
    errors, reference = [], None
    for _, record, error in repeats:
        if error is None and reference is None:
            reference = record["digest"]
        if error is None and record["digest"] != reference:
            diff = sorted(k for k in reference if record["digest"].get(k) != reference[k])
            error = f"outputs differ from the first repeat's: {', '.join(diff)}"
        errors.append(error)
    return errors


def end_to_end_samples(records, kind):
    samples = {name: [] for name in END_TO_END}
    for r in records:
        samples["setup_s"].append(r["setup_s"])
        samples["run_s"].append(r["run_s"])
        busy = r["run_s"] - r["setup_s"] if kind == "train" else r["run_s"]
        samples["masks_per_s"].append(r["masks"] / busy)
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        samples["quality"].append(r["quality"])
    return samples


def layer_metrics(traced, untraced):
    """Per-layer values from the traced repeats: medians over repeats, and
    per-call percentiles pooled over the first MIN_REPEATS of them, so the
    pool size and the tail percentile it supports are fixed per workload.
    Missing metrics are left out; the second return value maps each to why."""
    missing_spans = set().union(*(r["missing_spans"] for r in traced))
    spans = [r["trace"]["spans"] for r in traced]
    values, missing, tails = {}, {}, {}
    gone = "hook target gone"

    def total(s, span, stat):
        return s.get(span, {}).get(stat, 0)

    def med(fn):
        return statistics.median(fn(s) for s in spans)

    for span, stats in SPAN_STATS.items():
        for stat in stats:
            name = f"{span}.{stat}"
            if span in missing_spans:
                missing[name] = gone
            elif stat in ("ms_p50", "ms_tail"):
                pool = [x for s in spans[:MIN_REPEATS] for x in s.get(span, {}).get("samples_ms", [])]
                if not pool:
                    values[name] = 0.0
                elif stat == "ms_p50":
                    values[name] = statistics.median(pool)
                elif tail_percentile(pool) is None:
                    missing[name] = f"{len(pool)} calls: no percentile has ten beyond it"
                else:
                    tails[name] = (*tail_percentile(pool), len(pool))
                    values[name] = tails[name][1]
            elif stat == "MB_per_s":
                values[name] = med(lambda s: total(s, span, "bytes") / 1e6 / (total(s, span, "ms") / 1e3)
                                   if total(s, span, "ms") else 0.0)
            else:
                values[name] = med(lambda s: total(s, span, stat))

    if {"nn.per_sample_loss", "nn.sgd_step"} & missing_spans:
        missing["nn.forward_rows_per_update_row"] = gone
    else:
        def ratio(s):
            update = total(s, "nn.sgd_step", "rows")
            return (total(s, "nn.per_sample_loss", "rows") + update) / update if update else 0.0
        values["nn.forward_rows_per_update_row"] = med(ratio)

    if set(METRIC_SPANS) <= missing_spans:
        missing["metrics.ms"] = gone
    else:
        values["metrics.ms"] = med(lambda s: sum(total(s, m, "ms") for m in METRIC_SPANS))

    for p in PHASES:
        values[f"phase.{p}.ms"] = statistics.median(r["trace"]["phases"][p] for r in traced)
    values["trace.overhead"] = (statistics.median(r["run_s"] for r in traced)
                                / statistics.median(r["run_s"] for r in untraced))
    return values, missing, tails


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="canclab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the config's own seeds")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "canclab", "__init__.py"))
            and os.path.isfile(default_config(ROOT))):
        print(f"no canclab source tree with configs/default.ini under {ROOT}", file=sys.stderr)
        return 2

    kind = WORKLOADS[args.workload]["kind"]
    repeats = run_repeats(args)
    errors = gate(repeats)
    for i, error in enumerate(errors):
        if error is not None:
            print(f"repeat {i}: {error}", file=sys.stderr)
    failed = sum(e is not None for e in errors)
    good = [(t, r) for (t, r, _), e in zip(repeats, errors) if e is None]
    untraced = [r for t, r in good if not t]
    traced = [r for t, r in good if t]
    if not untraced or (args.trace and not traced):
        print("no repeat succeeded; no result", file=sys.stderr)
        return 1

    first = good[0][1]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(repeats)} repeats, {failed} failed, fail_frac {failed / len(repeats)}")
    print("machine " + json.dumps(first["machine"], sort_keys=True))
    for key, value in first.get("known_defects", {}).items():
        print(f"known defect, reported not gated: {key} = {value}")

    samples = end_to_end_samples(untraced, kind)
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, xs in samples.items():
        q1, q3 = _quartiles(xs)
        shown = name
        if name == "masks_per_s":
            shown = "masks_per_s (train_masks_per_s)" if kind == "train" else "masks_per_s (io_masks_per_s)"
        elif name == "quality" and kind == "train":
            shown = "quality (best_modelsel_acc)"
        print(f"{shown:<34}{statistics.median(xs):>14.6g}{q1:>14.6g}{q3:>14.6g}{len(xs):>4}  {END_TO_END[name]}")

    if args.trace:
        values, missing, tails = layer_metrics(traced, untraced)
        units = layer_metric_units()
        for name, value in values.items():
            note = ""
            if name in tails:
                note = f"  (p{tails[name][0]:g} of {tails[name][2]} calls)"
            print(f"{name:<40}{value:>14.6g}  {units[name]}{note}")
        for name, why in missing.items():
            print(f"{name:<40}{'MISSING':>14}  {units[name]}  ({why})")
        if kind == "train":
            cover = statistics.median(sum(r["trace"]["phases"].values()) / 1e3 / r["run_s"] for r in traced)
            print(f"phase.* sum / traced run_s = {cover:.4f}; trace.overhead = {values['trace.overhead']:.4f}")
        for hook in sorted(set().union(*(r["missing_hooks"] for r in traced))):
            print(f"hook target not found: {hook}")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    else:
        metrics = {n: {"value": statistics.median(xs), "unit": END_TO_END[n]} for n, xs in samples.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
