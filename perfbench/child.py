"""One repeat of a workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --out DIR

Times set-up (``harness.prepare_data``) and one workload pass, checks the
pass's outputs, and prints one JSON line. run.py starts one such process per
repeat, so each repeat's peak resident memory is its own.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from canclab import data, harness  # noqa: E402
from canclab.config import parse_config_text  # noqa: E402
from canclab.errors import CancLabError  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, config_text, default_config  # noqa: E402

REPORT_FILES = ("epochs.csv", "sp_iou.json", "summary.json")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _check(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def train_pass(cfg, out):
    return harness.run_experiment(cfg, out_dir=out)


def train_verify(report, cfg, parts, out):
    digest = {f: _digest(os.path.join(out, f)) for f in REPORT_FILES}
    digest["best_modelsel_acc"] = repr(report.best_accuracy)
    return {
        "quality": report.best_accuracy,
        "masks": len(parts[0]) * cfg.train.t_max,
        "digest": digest,
    }


def datagen_pass(cfg, out):
    manifest = harness.gen_data(cfg, out_dir=out)
    reads = {f: data.read_dataset(os.path.join(out, f)) for f in manifest["files"]}
    return manifest, reads


def _full_from_parts(parts, scene_size, m):
    """Reassemble full.bin's contents (scene-major, then row-major) from the
    three partitions, each mask placed by its scene and grid position."""
    g = scene_size // m
    n = sum(len(p) for p in parts)
    labels = np.full(n, -1, dtype=np.int64)
    patches = np.empty((n,) + parts[0].patches.shape[1:], dtype=np.float64)
    for p in parts:
        pos = p.scene_ids * g * g + p.rows * g + p.cols
        labels[pos] = p.labels if p.clean_labels is None else p.clean_labels
        patches[pos] = p.patches
    return labels, patches


def datagen_verify(result, cfg, parts, out):
    manifest, reads = result
    with open(os.path.join(out, "manifest.json")) as fh:
        on_disk = json.load(fh)
    _check(on_disk == manifest, "manifest.json differs from gen_data's return value")
    full_labels, full_patches = _full_from_parts(parts, cfg.data.scene_size, cfg.data.m)
    expected = {
        "full.bin": (full_labels, None, full_patches),
        "train.bin": (parts[0].labels, parts[0].clean_labels, parts[0].patches),
        "modelsel.bin": (parts[1].labels, parts[1].clean_labels, parts[1].patches),
        "eval.bin": (parts[2].labels, parts[2].clean_labels, parts[2].patches),
    }
    _check(sorted(reads) == sorted(expected), f"gen_data wrote {sorted(reads)}")
    agree = total = 0
    for fname, (labels, clean, patches) in expected.items():
        got = reads[fname]
        _check(len(got) == on_disk["files"][fname]["masks"] == len(labels),
               f"{fname}: {len(got)} masks read, manifest says {on_disk['files'][fname]['masks']}, "
               f"expected {len(labels)}")
        _check(np.array_equal(got.labels, labels), f"{fname}: read-back labels differ")
        _check((got.clean_labels is None) == (clean is None), f"{fname}: clean labels present/absent")
        if clean is not None:
            _check(np.array_equal(got.clean_labels, clean), f"{fname}: read-back clean labels differ")
        same = np.all(got.patches == patches.astype(np.float32), axis=(1, 2, 3))
        _check(bool(same.all()), f"{fname}: {int((~same).sum())} patches differ from float32 originals")
        agree += int(same.sum())
        total += len(got)
    digest = {f: _digest(os.path.join(out, f)) for f in sorted(reads) + ["manifest.json"]}
    return {
        "quality": agree / total,
        "masks": 2 * sum(f["masks"] for f in manifest["files"].values()),
        "digest": digest,
    }


KINDS = {"train": (train_pass, train_verify), "datagen": (datagen_pass, datagen_verify)}


def known_defects(kind, cfg, out):
    """Report the seed's known defects, untimed. A CANC workload reports
    the swap health behind criterion 8; datagen_io tries a file-source run
    over the files it just wrote."""
    if kind == "train":
        if cfg.train.algo != "canc":
            return {}
        with open(os.path.join(out, "epochs.csv")) as fh:
            last = fh.read().splitlines()[-1].split(",")
        return {"criterion_8_last_epoch_swap_correct_fraction": last[-1]}
    from_file = replace(cfg, data=replace(cfg.data, source="file", path=os.path.join(out, "full.bin")))
    try:
        harness.prepare_data(from_file)
    except CancLabError as exc:
        return {"file_source_run": f"{type(exc).__name__}: {exc}"}
    return {"file_source_run": "ok"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true", help="also report the known defects")
    args = ap.parse_args(argv)

    if not os.path.abspath(harness.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"canclab imported from {harness.__file__}, not from this tree")

    text = config_text(default_config(ROOT), args.workload, args.seed)
    cfg = parse_config_text(text, base_dir=os.path.join(ROOT, "configs"))
    kind = WORKLOADS[args.workload]["kind"]
    run_pass, verify = KINDS[kind]
    os.makedirs(args.out, exist_ok=True)

    t0 = time.perf_counter()
    parts = harness.prepare_data(cfg)
    setup_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer:
        with tracer:
            result = run_pass(cfg, args.out)
    else:
        result = run_pass(cfg, args.out)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        **verify(result, cfg, parts, args.out),
        "machine": machine_record(),
    }
    if args.probe:
        record["known_defects"] = known_defects(kind, cfg, args.out)
    if tracer:
        record["trace"] = summarize(tracer.spans)
        record["missing_hooks"] = tracer.missing_hooks
        record["missing_spans"] = tracer.missing_spans()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
