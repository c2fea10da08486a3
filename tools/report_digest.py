"""Print the sha256 of the files that canclab's reproducible runs write.

Runs configs/smoke.ini once, each benchmark workload of
perfbench/workloads.py at workload seeds 0 and 1, a sweep of
configs/smoke.ini over algo=vanilla,canc, and last configs/smoke.ini from
a file source (gen-data into data/, then a run from data/full.bin into
run/), each into its own temporary directory, and prints one line per file
written:

    <run> <file> <sha256>

A training run writes epochs.csv, sp_iou.json and summary.json; the
gen-data workload writes full/train/modelsel/eval.bin and manifest.json;
the sweep writes sweep_summary.json and one training run's files per
cell, named <cell>/<file>. The file-source run reads its data by the
relative path data/full.bin, so its summary.json echoes no temporary
directory.

After all of those it prints, for each training run, two more lines:

    <run> <dir/>epochs.csv:no-train <sha256>
    <run> <dir/>summary.json:no-train <sha256>

the digest of epochs.csv without its train rows and of summary.json
without final_metrics.train (re-serialized as the run writes it). Two
trees that differ only in the training split's scoring print these lines
the same. They come last, so a tree whose script lacks them still lines up
line for line with the rest.

Then it runs configs/smoke.ini at batch_size = 200, whose first batch of
200 rows is forwarded and backpropped as chunks of 128 and 72, and prints
that run's lines and its two no-train lines in the same way. Last of all
it runs gen-data of configs/smoke.ini with noise_modelsel = true, whose
modelsel.bin carries clean labels that full.bin must take as the truth,
and prints its five file lines.

Two trees whose runs should agree byte for byte print the same lines, so
comparing this script's output on both is the check. The BLAS thread count
comes from the environment (e.g. OPENBLAS_NUM_THREADS). Run from anywhere:

    python3 tools/report_digest.py
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from canclab import harness  # noqa: E402
from canclab.config import load_config, parse_config_text  # noqa: E402

SEEDS = (0, 1)
SWEEP_GRID = "algo=vanilla,canc"


def bench_workloads():
    """perfbench/workloads.py, imported from its file without changing it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(out):
    """(path under out, sha256) of every file under out, by path."""
    files = sorted(p for p in Path(out).rglob("*") if p.is_file())
    return [(p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in files]


def without_train(path):
    """The text of a run's epochs.csv without its train rows, or of its
    summary.json without final_metrics.train; None for any other file."""
    if path.name == "epochs.csv":
        rows = path.read_text().splitlines()
        col = rows[0].split(",").index("split")
        return "\n".join(row for row in rows if row.split(",")[col] != "train") + "\n"
    if path.name == "summary.json":
        summary = json.loads(path.read_text())
        del summary["final_metrics"]["train"]
        return json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return None


def runs():
    """(run name, config, kind) of every run to digest."""
    smoke = load_config(ROOT / "configs" / "smoke.ini")
    yield "smoke", smoke, "train"
    workloads = bench_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            text = workloads.config_text(workloads.default_config(str(ROOT)), name, seed)
            cfg = parse_config_text(text, base_dir=str(ROOT / "configs"))
            yield f"{name}@seed{seed}", cfg, workload["kind"]
    yield "smoke_sweep", smoke, "sweep"
    yield "smoke_file", smoke, "file"


def late_runs():
    """Runs added after the others, each digested after every line of the
    runs before it, so that a tree whose script lacks a run still lines up
    line for line."""
    smoke = load_config(ROOT / "configs" / "smoke.ini")
    # 264 training rows: batches of 200 and 64 rows, the first forwarded as
    # chunks of 128 and 72
    yield "smoke_b200", replace(smoke, train=replace(smoke.train, batch_size=200)), "train"
    # modelsel.bin carries clean labels, which full.bin must take as the truth
    noisy_modelsel = replace(smoke.noise, noise_modelsel=True)
    yield "smoke_gen_modelsel", replace(smoke, noise=noisy_modelsel), "datagen"


def digest_runs(named_runs):
    """Run each, print its file lines, then every run's no-train lines."""
    no_train = []
    for name, cfg, kind in named_runs:
        with tempfile.TemporaryDirectory() as out:
            if kind == "train":
                harness.run_experiment(cfg, out_dir=out)
            elif kind == "sweep":
                harness.sweep(cfg, grid_text=SWEEP_GRID, out_dir=out)
            elif kind == "file":
                cwd = os.getcwd()
                os.chdir(out)
                try:
                    harness.gen_data(cfg, out_dir="data")
                    from_file = replace(cfg, data=replace(cfg.data, source="file", path="data/full.bin"))
                    harness.run_experiment(from_file, out_dir="run")
                finally:
                    os.chdir(cwd)
            else:
                harness.gen_data(cfg, out_dir=out)
            for fname, digest in digests(out):
                print(f"{name} {fname} {digest}", flush=True)
                kept = without_train(Path(out) / fname)
                if kept is not None:
                    digest = hashlib.sha256(kept.encode()).hexdigest()
                    no_train.append(f"{name} {fname}:no-train {digest}")
    for line in no_train:
        print(line, flush=True)


def main():
    digest_runs(runs())
    for run in late_runs():
        digest_runs([run])


if __name__ == "__main__":
    main()
