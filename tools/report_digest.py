"""Print the sha256 of the files that canclab's reproducible runs write.

Runs configs/smoke.ini once and each benchmark workload of
perfbench/workloads.py at workload seeds 0 and 1, each into its own
temporary directory, and prints one line per file written:

    <run> <file> <sha256>

A training run writes epochs.csv, sp_iou.json and summary.json; the
gen-data workload writes full/train/modelsel/eval.bin and manifest.json.
Two trees whose runs should agree byte for byte print the same lines, so
comparing this script's output on both is the check. The BLAS thread count
comes from the environment (e.g. OPENBLAS_NUM_THREADS). Run from anywhere:

    python3 tools/report_digest.py
"""

import hashlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from canclab import harness  # noqa: E402
from canclab.config import load_config, parse_config_text  # noqa: E402

SEEDS = (0, 1)


def bench_workloads():
    """perfbench/workloads.py, imported from its file without changing it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(out):
    """(file name, sha256) of every file in out, by name."""
    files = sorted(Path(out).iterdir())
    return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files]


def runs():
    """(run name, config, kind) of every run to digest."""
    yield "smoke", load_config(ROOT / "configs" / "smoke.ini"), "train"
    workloads = bench_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            text = workloads.config_text(workloads.default_config(str(ROOT)), name, seed)
            cfg = parse_config_text(text, base_dir=str(ROOT / "configs"))
            yield f"{name}@seed{seed}", cfg, workload["kind"]


def main():
    for name, cfg, kind in runs():
        with tempfile.TemporaryDirectory() as out:
            if kind == "train":
                harness.run_experiment(cfg, out_dir=out)
            else:
                harness.gen_data(cfg, out_dir=out)
            for fname, digest in digests(out):
                print(f"{name} {fname} {digest}", flush=True)


if __name__ == "__main__":
    main()
