"""Command-line front end.

  canclab run <config> [--out DIR]          one experiment
  canclab sweep <config> [--grid SPEC] [--out DIR]
  canclab compare <run-dir> [<run-dir> ...] [--json]
  canclab gen-data <config> [--out DIR]

Relative output directories resolve under $CANCLAB_OUT when set. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigError, DataError, NumericError
from .harness import (
    DEFAULT_GRID,
    compare_runs,
    gen_data,
    load_report,
    run_experiment,
    sweep,
)
from .version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canclab",
        description="noise-robust mask classification experiments",
    )
    parser.add_argument("--version", action="version", version=f"canclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", default=DEFAULT_GRID,
                         help="axes as 'algo=...;noise=...;epsilon=...'")
    p_sweep.add_argument("--out", default=None, help="output root override")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="align reports from finished runs")
    p_cmp.add_argument("run_dirs", nargs="+", metavar="run-dir")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_gen = sub.add_parser("gen-data", help="write the dataset to binary files")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", default=None, help="output directory override")
    p_gen.set_defaults(handler=_cmd_gen_data)
    return parser


def _fmt(x) -> str:
    return f"{x:.4f}" if isinstance(x, float) else str(x)


def _cmd_run(args) -> int:
    report = run_experiment(load_config(args.config), out_dir=args.out)
    print(f"run {report.name}: wrote {', '.join(sorted(report.files))} to {report.out_dir}")
    print(f"best modelsel accuracy {report.best_accuracy:.4f} at epoch {report.best_epoch}")
    ev = report.final_metrics["eval"]
    print(
        "eval accuracy "
        + " ".join(f"{k}={_fmt(ev[k])}" for k in ("accuracy", "precision", "recall", "f1", "sp_iou_mean"))
    )
    print(f"wall time {report.wall_time:.1f}s")
    return 0


def _cmd_sweep(args) -> int:
    summary = sweep(load_config(args.config), grid_text=args.grid, out_dir=args.out)
    header = ("cell", "best_modelsel_accuracy", "eval_accuracy", "eval_f1")
    print(" | ".join(header))
    for row in summary["rows"]:
        print(" | ".join(_fmt(row[k]) for k in header))
    return 0


def _cmd_compare(args) -> int:
    result = compare_runs([load_report(d) for d in args.run_dirs])
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    names = [run["name"] for run in result["runs"]]
    print("run | algo | noise | epsilon | best_modelsel_accuracy | eval_accuracy")
    for run in result["runs"]:
        print(
            f"{run['name']} | {run['algo']} | {run['noise']} | {run['epsilon']} | "
            f"{_fmt(run['best_modelsel_accuracy'])} | {_fmt(run['final_metrics']['eval']['accuracy'])}"
        )
    print("scene | " + " | ".join(names))
    for row in result["per_scene"]:
        print(f"{row['scene_id']} | " + " | ".join(_fmt(row["sp_iou"][n]) for n in names))
    if "best_improved_scene" in result:
        best, worst = result["best_improved_scene"], result["worst_improved_scene"]
        print(f"best improved scene {best['scene_id']} (ratio {_fmt(best['ratio'])}), "
              f"worst {worst['scene_id']} (ratio {_fmt(worst['ratio'])})")
    return 0


def _cmd_gen_data(args) -> int:
    manifest = gen_data(load_config(args.config), out_dir=args.out)
    for fname, info in manifest["files"].items():
        kind = "noisy+clean labels" if info["labels_noisy"] else "clean labels"
        print(f"{fname}: {info['masks']} masks ({kind})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
