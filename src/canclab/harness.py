"""Experiment harness: data -> noise -> train -> evaluate -> reports.

A run writes three artifacts into its output directory:

  epochs.csv   one row per (epoch, split) with metrics and selection stats
  sp_iou.json  per-evaluation-scene smoothed IoU, [{"scene_id", "sp_iou"}]
  summary.json config echo, dataset counts, best snapshot, final metrics

All files are written atomically (temp file + rename) and contain nothing
volatile, so rerunning the same config overwrites them byte-for-byte.
Wall-clock time lives only on the in-memory report.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import ExperimentConfig, _convert
from .data import (_write_whole, build_mask_dataset, generate_scene, read_dataset, split_dataset,
                   write_dataset)
from .errors import ConfigError, DataError
from .metrics import confusion, prf1, scene_sp_iou
from .nn import NetworkSpec, parse_layers, predict
from .noise import make_transition, inject
from .training import TrainResult, train
from .version import __version__

OUT_ENV_VAR = "CANCLAB_OUT"
DEFAULT_GRID = "algo=vanilla,coteaching,canc;noise=symmetric,antisymmetric;epsilon=0.15,0.35,0.45,0.55"

EPOCH_CSV_COLUMNS = (
    "epoch", "split", "accuracy", "precision", "recall", "f1",
    "remember_rate", "n_clean", "n_swapped", "swap_correct_fraction", "inverted",
)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything a finished run knows about itself; files already exist."""

    name: str
    out_dir: str
    setting: dict  # the algo, noise and epsilon that compare_runs and sweep label it by
    files: dict
    best_epoch: int
    best_accuracy: float
    final_metrics: dict
    scene_ious: tuple
    wall_time: float


def resolve_out_dir(configured: str, override: str = None) -> str:
    """Explicit override wins; otherwise the configured directory, rooted at
    $CANCLAB_OUT when it is relative and the env var is set."""
    path = override if override else configured
    if not os.path.isabs(path):
        root = os.environ.get(OUT_ENV_VAR, "")
        if root:
            path = os.path.join(root, path)
    return path


def _write_atomic(path: str, data) -> None:
    tmp = path + ".tmp"
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def prepare_data(cfg: ExperimentConfig):
    """Steps 1-2 of the pipeline: the (train, modelsel, eval) partitions,
    with label noise injected into train (and optionally modelsel).
    Evaluation labels stay clean. A synthetic source's scenes are drawn one
    at a time and their masks built straight into the partitions, rounded
    to float32, so the whole dataset is never held; a file's float32 masks
    are split as read. Either way the partitions hold the same float32
    bits, which the network widens batch by batch."""
    d = cfg.data
    if d.source == "synthetic":
        scenes = (generate_scene(d, scene_id=i) for i in range(d.n_scenes))
        train_ds, modelsel_ds, eval_ds = build_mask_dataset(
            scenes, d.n_scenes, d.m, d.tau_label, d.split_indices()
        )
    else:
        ds = read_dataset(d.path)
        if ds.clean_labels is not None:
            raise ConfigError(
                f"{d.path} already has noisy labels; a file source must hold the "
                "clean truth, as gen-data's full.bin does"
            )
        train_ds, modelsel_ds, eval_ds = split_dataset(ds, d.split, seed=d.seed)

    if cfg.noise.type != "none":
        t = make_transition(cfg.noise.type, cfg.noise.epsilon)
        train_ds = inject(train_ds, t, np.random.SeedSequence((cfg.noise.seed, 0)))
        if cfg.noise.noise_modelsel:
            modelsel_ds = inject(modelsel_ds, t, np.random.SeedSequence((cfg.noise.seed, 1)))
    return train_ds, modelsel_ds, eval_ds


def _epochs_csv(result: TrainResult) -> str:
    """A header line of EPOCH_CSV_COLUMNS, then one row per (epoch, split);
    each column is the record's field or the split's metric of that name."""
    lines = [",".join(EPOCH_CSV_COLUMNS)]
    for rec in result.records:
        for split, m in (("train", rec.train_metrics), ("modelsel", rec.modelsel_metrics)):
            row = {**vars(rec), **asdict(m), "split": split}
            lines.append(",".join(str(row[col]) for col in EPOCH_CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _report(summary, run_dir: str, ious, wall_time: float = math.nan) -> RunReport:
    """The report of a run from its summary.json and sp_iou.json contents.
    Raises AttributeError, KeyError or TypeError when a field is missing,
    or when the name (compare keys its table by it) is not a string or the
    eval accuracy (compare prints it) not a number."""
    config = summary["config"]
    name = summary.get("name", os.path.basename(os.path.normpath(run_dir)))
    accuracy = summary["final_metrics"]["eval"]["accuracy"]
    if type(name) is not str or type(accuracy) not in (int, float):
        raise TypeError(f"name {name!r} is not a string or eval accuracy {accuracy!r} not a number")
    return RunReport(
        name=name,
        out_dir=run_dir,
        setting={
            "algo": config["train"]["algo"],
            "noise": config["noise"]["type"],
            "epsilon": config["noise"]["epsilon"],
        },
        files=summary["files"],
        best_epoch=summary["best"]["epoch"],
        best_accuracy=summary["best"]["modelsel_accuracy"],
        final_metrics=summary["final_metrics"],
        scene_ious=tuple(ious),
        wall_time=wall_time,
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str = None) -> RunReport:
    """Execute the full pipeline for one config and write its reports. On a
    synthetic source the masks are [data] m x m x channels, so a layer
    list that cannot fit them fails here, before any scene is drawn."""
    started = time.monotonic()
    if cfg.data.source == "synthetic":
        NetworkSpec(cfg.data.m, cfg.data.channels, parse_layers(cfg.train.network))
    out = resolve_out_dir(cfg.output.dir, out_dir)
    os.makedirs(out, exist_ok=True)

    train_ds, modelsel_ds, eval_ds = prepare_data(cfg)
    result = train(train_ds, modelsel_ds, cfg.train)

    # the best epoch's record already scored the best network on train and
    # modelsel; only the eval split is predicted here
    best = result.records[result.best_epoch]
    eval_pred = predict(result.best_network, eval_ds.patches)
    final = {
        "train": asdict(best.train_metrics),
        "modelsel": asdict(best.modelsel_metrics),
        "eval": asdict(prf1(confusion(eval_ds.labels, eval_pred))),
    }
    ious = scene_sp_iou(eval_ds.scene_ids, eval_ds.labels, eval_pred)
    final["eval"]["sp_iou_mean"] = (
        float(np.mean([x["sp_iou"] for x in ious])) if ious else math.nan
    )

    counts = {
        "train_masks": len(train_ds),
        "modelsel_masks": len(modelsel_ds),
        "eval_masks": len(eval_ds),
        "eval_scenes": int(np.unique(eval_ds.scene_ids).size),
        "pool_scenes": int(np.unique(np.concatenate([train_ds.scene_ids, modelsel_ds.scene_ids])).size),
    }
    if train_ds.clean_labels is not None:
        counts["train_flipped_fraction"] = float(np.mean(train_ds.labels != train_ds.clean_labels))

    files = {"epochs_csv": "epochs.csv", "sp_iou_json": "sp_iou.json", "summary_json": "summary.json"}
    _write_atomic(os.path.join(out, files["epochs_csv"]), _epochs_csv(result))
    _write_atomic(os.path.join(out, files["sp_iou_json"]), _json_dumps(ious))

    summary = {
        "version": __version__,
        # name comes from the config, never the resolved path, so reruns
        # into a different directory still produce identical bytes
        "name": os.path.basename(os.path.normpath(cfg.output.dir)),
        "config": asdict(cfg),
        "counts": counts,
        "best": {
            "epoch": result.best_epoch,
            "modelsel_accuracy": result.best_accuracy,
            "inverted": best.inverted,
        },
        "final_metrics": final,
        "files": files,
    }
    _write_atomic(os.path.join(out, files["summary_json"]), _json_dumps(summary))
    return _report(summary, out, ious, wall_time=time.monotonic() - started)


def gen_data(cfg: ExperimentConfig, out_dir: str = None) -> dict:
    """Materialize the dataset to binary files, holding only the partitions
    that prepare_data gives a run: train/modelsel/eval.bin are those
    partitions, train.bin with noise baked in (and the clean labels kept)
    when noise is configured; full.bin holds every mask with its true
    label, each partition's rows placed by scene and grid position."""
    if cfg.data.source != "synthetic":
        raise ConfigError("gen-data needs [data] source = synthetic")
    out = resolve_out_dir(cfg.output.dir, out_dir)
    os.makedirs(out, exist_ok=True)

    parts = prepare_data(cfg)
    g = cfg.data.scene_size // cfg.data.m
    files = [("full.bin", _write_whole, (parts, g), sum(map(len, parts)), False)]
    files += [(fname, write_dataset, (part,), len(part), part.clean_labels is not None)
              for fname, part in zip(("train.bin", "modelsel.bin", "eval.bin"), parts)]
    manifest = {"version": __version__, "m": cfg.data.m, "channels": cfg.data.channels, "files": {}}
    for fname, write, args, masks, noisy in files:
        path = os.path.join(out, fname)
        write(path + ".tmp", *args)
        os.replace(path + ".tmp", path)
        manifest["files"][fname] = {"masks": masks, "labels_noisy": noisy}
    _write_atomic(os.path.join(out, "manifest.json"), _json_dumps(manifest))
    return manifest


def parse_grid(text: str) -> dict:
    """Parse 'algo=a,b;noise=c;epsilon=0.1,0.2' into an ordered dict of
    value lists. Allowed axes: algo, noise, epsilon, each at most once and
    each value once per axis (epsilons as the cell name prints them), so
    no two cells share a directory."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid term {part!r} is not key=v1,v2,...")
        key, values = part.split("=", 1)
        key = key.strip()
        if key not in ("algo", "noise", "epsilon"):
            raise ConfigError(f"unknown grid axis {key!r}")
        if key in grid:
            raise ConfigError(f"grid axis {key!r} given twice")
        items = [v.strip() for v in values.split(",") if v.strip()]
        if not items:
            raise ConfigError(f"grid axis {key!r} has no values")
        if key == "epsilon":
            items = [_convert(v, 0.0, "grid axis 'epsilon'") for v in items]
        names = [f"{v:g}" for v in items] if key == "epsilon" else items
        if len(set(names)) != len(names):
            raise ConfigError(f"grid axis {key!r} repeats a value in {values.strip()!r}")
        grid[key] = items
    if not grid:
        raise ConfigError("empty sweep grid")
    return grid


def sweep(cfg: ExperimentConfig, grid_text: str = DEFAULT_GRID, out_dir: str = None) -> dict:
    """Run one experiment per grid cell under a common output root and
    write sweep_summary.json there, which holds exactly the returned dict:
    the grid and one row per cell. A cell's [output] dir is the configured
    dir joined with the cell name, so its reports do not depend on where
    the root resolves; it writes them to <root>/<cell>. Every cell's
    config is built, and so checked, before the first run: a bad grid
    value fails before any scene is drawn or any directory made."""
    grid = parse_grid(grid_text)
    root = os.path.abspath(resolve_out_dir(cfg.output.dir, out_dir))
    cells = []
    for algo, noise, eps in itertools.product(
        grid.get("algo", [cfg.train.algo]),
        grid.get("noise", [cfg.noise.type]),
        grid.get("epsilon", [cfg.noise.epsilon]),
    ):
        cell = f"{algo}_{noise}_eps{eps:g}"
        cell_cfg = replace(
            cfg,
            train=replace(cfg.train, algo=algo),
            noise=replace(cfg.noise, type=noise, epsilon=eps),
            output=replace(cfg.output, dir=os.path.join(cfg.output.dir, cell)),
        )
        cells.append((cell, cell_cfg))
    os.makedirs(root, exist_ok=True)

    rows = []
    for cell, cell_cfg in cells:
        report = run_experiment(cell_cfg, out_dir=os.path.join(root, cell))
        rows.append(
            {
                "cell": cell,
                **report.setting,
                "best_modelsel_accuracy": report.best_accuracy,
                "eval_accuracy": report.final_metrics["eval"]["accuracy"],
                "eval_f1": report.final_metrics["eval"]["f1"],
                "eval_sp_iou_mean": report.final_metrics["eval"]["sp_iou_mean"],
            }
        )
    summary = {"version": __version__, "grid": grid_text, "rows": rows}
    _write_atomic(os.path.join(root, "sweep_summary.json"), _json_dumps(summary))
    return summary


def _is_scene_iou(entry) -> bool:
    """entry is one sp_iou.json row as a run writes it: an int scene_id and
    an SP-IoU, (inter+1)/(union+1), in (0, 1]. compare divides by it."""
    if not isinstance(entry, dict):
        return False
    sid, value = entry.get("scene_id"), entry.get("sp_iou")
    return type(sid) is int and type(value) in (int, float) and 0 < value <= 1


def load_report(run_dir: str) -> RunReport:
    """Rehydrate a report from a run directory's summary and SP-IoU files."""
    spath = os.path.join(run_dir, "summary.json")
    ipath = os.path.join(run_dir, "sp_iou.json")
    loaded = []
    for path in (spath, ipath):
        if not os.path.isfile(path):
            raise DataError(f"missing report file: {path}")
        with open(path) as fh:
            try:
                loaded.append(json.load(fh))
            except ValueError as exc:
                raise DataError(f"report file {path} is not valid JSON: {exc}") from exc
    summary, ious = loaded
    if not (isinstance(ious, list) and all(map(_is_scene_iou, ious))):
        raise DataError(
            f"report file {ipath} is not a list of {{scene_id: int, sp_iou: number in (0, 1]}}"
        )
    try:
        return _report(summary, run_dir, ious)
    except (AttributeError, KeyError, TypeError) as exc:
        raise DataError(f"report file {spath} is not a run summary: {exc!r}") from exc


def compare_runs(reports) -> dict:
    """Align per-scene SP-IoU across runs (same evaluation scenes required)
    and flag the scenes the last run improved most/least over the first."""
    reports = list(reports)
    if not reports:
        raise DataError("nothing to compare")
    names = []
    for rep in reports:
        candidate, k = rep.name, 2
        while candidate in names:
            candidate = f"{rep.name}#{k}"
            k += 1
        names.append(candidate)
    base_ids = [x["scene_id"] for x in reports[0].scene_ious]
    for rep in reports[1:]:
        ids = [x["scene_id"] for x in rep.scene_ious]
        if ids != base_ids:
            raise DataError(
                f"run {rep.name!r} evaluates scenes {ids}, expected {base_ids}"
            )

    per_scene = []
    for i, sid in enumerate(base_ids):
        base = reports[0].scene_ious[i]["sp_iou"]
        row = {"scene_id": sid, "sp_iou": {}, "ratio_vs_first": {}}
        for rep, rname in zip(reports, names):
            v = rep.scene_ious[i]["sp_iou"]
            row["sp_iou"][rname] = v
            row["ratio_vs_first"][rname] = v / base
        per_scene.append(row)

    result = {
        "runs": [
            {
                "name": rname,
                **rep.setting,
                "best_modelsel_accuracy": rep.best_accuracy,
                "final_metrics": rep.final_metrics,
            }
            for rep, rname in zip(reports, names)
        ],
        "per_scene": per_scene,
    }
    last = names[-1]
    if per_scene:
        ranked = sorted(per_scene, key=lambda row: row["ratio_vs_first"][last])
        result["worst_improved_scene"] = {
            "scene_id": ranked[0]["scene_id"], "ratio": ranked[0]["ratio_vs_first"][last]
        }
        result["best_improved_scene"] = {
            "scene_id": ranked[-1]["scene_id"], "ratio": ranked[-1]["ratio_vs_first"][last]
        }
    return result
