"""Harness tests: config parsing, the four-step pipeline, reports, sweep,
compare, data generation, and the CLI surface."""

import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from canclab import (
    ConfigError,
    DataConfig,
    DataError,
    ExperimentConfig,
    MaskDataset,
    NoiseConfig,
    OutputConfig,
    TrainConfig,
    compare_runs,
    gen_data,
    load_config,
    load_report,
    read_dataset,
    run_experiment,
    sweep,
    train,
    write_dataset,
)
from canclab.config import parse_config_text
from canclab.data import NO_LABEL
from canclab.harness import parse_grid, prepare_data, resolve_out_dir
from canclab.training import derive_train_seeds
from oracles import whole_dataset_gen_data

TINY = """
[data]
n_scenes = 6
scene_size = 128
m = 16
split = 0.6,0.2,0.2
seed = 0

[noise]
type = symmetric
epsilon = 0.35
seed = 1

[train]
algo = canc
lr = 0.05
t_max = 3
t_k = 2
batch_size = 32
tau_f = 0.45
swap_rate = 0.1
seed = 7
network = conv(4,5,2) lrelu(0.1) conv(8,3,1) lrelu(0.1) dense(2)

[output]
dir = tinyrun
"""


def tiny_cfg():
    return parse_config_text(TINY)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults():
    cfg = parse_config_text("")
    assert cfg.data.n_scenes == 20
    assert cfg.data.scene_size == 512
    assert cfg.data.m == 32
    assert cfg.noise.type == "none"
    assert cfg.train.algo == "canc"


def test_config_empty_text_is_the_dataclass_defaults():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()


def test_config_every_key_set_to_a_non_default_value(tmp_path):
    (tmp_path / "masks.bin").write_bytes(b"")
    text = """
[data]
source = file
path = masks.bin
n_scenes = 3
scene_size = 96
channels = 3
m = 12
tau_label = 0.2
split = 0.5, 0.3, 0.2
seed = 4
building_count = 1,5
building_side = 6,30

[noise]
type = antisymmetric
epsilon = 0.3
seed = 6
noise_modelsel = true

[train]
algo = coteaching
lr = 0.1
t_max = 5
t_k = 4
batch_size = 16
tau_f = 0.3
swap_rate = 0.2
seed = 8
network = conv(4,3,1) lrelu(0.2) dense(2)

[output]
dir = elsewhere
"""
    expected = ExperimentConfig(
        data=DataConfig(
            source="file", path=os.path.join(str(tmp_path), "masks.bin"), n_scenes=3,
            scene_size=96, channels=3, m=12, tau_label=0.2, split=(0.5, 0.3, 0.2), seed=4,
            building_count=(1, 5), building_side=(6, 30),
        ),
        noise=NoiseConfig(type="antisymmetric", epsilon=0.3, seed=6, noise_modelsel=True),
        train=TrainConfig(
            algo="coteaching", network="conv(4,3,1) lrelu(0.2) dense(2)", lr=0.1, t_max=5,
            t_k=4, batch_size=16, tau_f=0.3, swap_rate=0.2, seed=8,
        ),
        output=OutputConfig(dir="elsewhere"),
    )
    cfg = parse_config_text(text, base_dir=str(tmp_path))
    assert cfg == expected
    default = ExperimentConfig()
    for section in ("data", "noise", "train", "output"):
        for f in fields(getattr(default, section)):
            got = getattr(getattr(cfg, section), f.name)
            assert got != getattr(getattr(default, section), f.name), (section, f.name)
            assert type(got) is type(getattr(getattr(expected, section), f.name)), (section, f.name)


@pytest.mark.parametrize(
    "text",
    [
        "[train]\nshuffle_seed = 3\n",
        "[output]\nformats = csv,json\n",
        "[train]\nn_max = 9\n",
        "[train]\nswap_mode = one_minus_r\n",
        "[noise]\nkind = symmetric\n",
        "[train]\nablation_s_equals_1_minus_r = true\n",
        "[train]\npersist_swaps = true\n",
        "[data]\nbuilding_intensity = 0.55,0.95\n",
        "[data]\nbackground_intensity = 0.05,0.45\n",
        "[data]\npixel_noise = 0.04\n",
    ],
    ids=["shuffle_seed", "formats", "n_max", "swap_mode", "kind", "ablation_s_equals_1_minus_r",
         "persist_swaps", "building_intensity", "background_intensity", "pixel_noise"],
)
def test_cli_rejects_removed_keys(tmp_path, text):
    # keys that older configs carried, or field names that were never keys;
    # none is a field any more
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text)
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "unknown keys" in proc.stderr


def test_config_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[wat]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[data]\nscenes = 5\n")


def test_config_type_errors_are_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("[data]\nn_scenes = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("[noise]\nnoise_modelsel = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("[data]\nsplit = 0.5,0.5\n")


def test_config_inline_comments():
    cfg = parse_config_text("[data]\nn_scenes = 4  # small\n")
    assert cfg.data.n_scenes == 4


def test_config_rejects_unparseable_network(tmp_path):
    # caught when the config loads, before any scene is built; a layer with
    # too many arguments is not read as its first ones
    cfg_path = tmp_path / "exp.ini"
    for network in ("conv(4)", "conv(6,5,2,9)", "lrelu(0.1,7)", "dense(432,2,5)"):
        cfg_path.write_text(f"[train]\nnetwork = {network}\n")
        with pytest.raises(ConfigError, match=re.escape(network)):
            load_config(str(cfg_path))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    with pytest.raises(ConfigError):
        TrainConfig(network="dense(2) sorcery(1)")


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/whatever.ini")


def test_config_file_source_requires_existing_path(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_text("[data]\nsource = file\npath = gone.bin\n", base_dir=str(tmp_path))


def test_derive_train_seeds_deterministic():
    assert derive_train_seeds(7) == derive_train_seeds(7)
    assert derive_train_seeds(7) != derive_train_seeds(8)
    assert parse_config_text("[train]\nseed = 7\n").train.seed == 7
    assert len(set(derive_train_seeds(7))) == 3


def test_resolve_out_dir_env_root(monkeypatch, tmp_path):
    monkeypatch.setenv("CANCLAB_OUT", str(tmp_path))
    assert resolve_out_dir("x") == os.path.join(str(tmp_path), "x")
    assert resolve_out_dir("/abs/x") == "/abs/x"
    monkeypatch.delenv("CANCLAB_OUT")
    assert resolve_out_dir("x") == "x"


# ---------------------------------------------------------------------------
# run_experiment


def test_run_writes_reports_and_is_deterministic(tmp_path):
    cfg = tiny_cfg()
    r1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    r2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for fname in ("epochs.csv", "sp_iou.json", "summary.json"):
        b1 = (tmp_path / "a" / fname).read_bytes()
        b2 = (tmp_path / "b" / fname).read_bytes()
        assert b1 == b2, fname
    assert r1.best_accuracy == r2.best_accuracy
    assert r1.wall_time >= 0.0


def test_run_epochs_csv_schema(tmp_path):
    run_experiment(tiny_cfg(), out_dir=str(tmp_path))
    lines = (tmp_path / "epochs.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "epoch", "split", "accuracy", "precision", "recall", "f1",
        "remember_rate", "n_clean", "n_swapped", "swap_correct_fraction", "inverted",
    ]
    assert len(lines) == 1 + 2 * 3  # header + (train, modelsel) x epochs
    assert lines[1].split(",")[1] == "train"
    assert lines[2].split(",")[1] == "modelsel"


def test_run_summary_contents(tmp_path):
    run_experiment(tiny_cfg(), out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["noise"]["epsilon"] == 0.35
    assert summary["config"]["train"]["algo"] == "canc"
    assert summary["counts"]["train_masks"] > 0
    assert summary["counts"]["eval_scenes"] == 1
    assert 0.0 <= summary["best"]["modelsel_accuracy"] <= 1.0
    assert set(summary["final_metrics"]) == {"train", "modelsel", "eval"}
    ious = json.loads((tmp_path / "sp_iou.json").read_text())
    assert len(ious) == summary["counts"]["eval_scenes"]
    assert set(ious[0]) == {"scene_id", "sp_iou"}


def test_run_clean_vanilla_beats_coin_flip(tmp_path):
    text = TINY.replace("type = symmetric", "type = none").replace("algo = canc", "algo = vanilla")
    cfg = parse_config_text(text)
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert report.final_metrics["eval"]["accuracy"] > 0.5


# ---------------------------------------------------------------------------
# compare


def test_compare_single_report_is_identity(tmp_path):
    run_experiment(tiny_cfg(), out_dir=str(tmp_path / "a"))
    rep = load_report(str(tmp_path / "a"))
    result = compare_runs([rep])
    assert result["runs"][0]["best_modelsel_accuracy"] == rep.best_accuracy
    assert all(
        row["ratio_vs_first"][rep.name] == 1.0 for row in result["per_scene"]
    )


def test_compare_identical_reports_ratio_one(tmp_path):
    run_experiment(tiny_cfg(), out_dir=str(tmp_path / "a"))
    run_experiment(tiny_cfg(), out_dir=str(tmp_path / "b"))
    reports = [load_report(str(tmp_path / "a")), load_report(str(tmp_path / "b"))]
    result = compare_runs(reports)
    names = [r["name"] for r in result["runs"]]
    assert len(set(names)) == 2  # deduplicated display names
    for row in result["per_scene"]:
        assert all(v == 1.0 for v in row["ratio_vs_first"].values())
    assert result["best_improved_scene"]["ratio"] == 1.0


def test_compare_rejects_mismatched_eval_scenes(tmp_path):
    run_experiment(tiny_cfg(), out_dir=str(tmp_path / "a"))
    other = parse_config_text(TINY.replace("seed = 0", "seed = 5"))
    run_experiment(other, out_dir=str(tmp_path / "b"))
    reports = [load_report(str(tmp_path / "a")), load_report(str(tmp_path / "b"))]
    with pytest.raises(DataError):
        compare_runs(reports)


def test_load_report_missing_files(tmp_path):
    with pytest.raises(DataError):
        load_report(str(tmp_path))


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda text: "{not json",
        lambda text: "{}",
        # every top-level field there, but not the config fields compare reads
        lambda text: json.dumps({**json.loads(text), "config": {}}),
        # compare keys its table by the name and prints the eval accuracy
        lambda text: json.dumps({**json.loads(text), "name": 3}),
        lambda text: json.dumps({**json.loads(text), "final_metrics": None}),
        lambda text: json.dumps({**json.loads(text), "final_metrics": {"eval": "accuracy"}}),
    ],
    ids=["not_json", "empty_object", "config_empty", "name_int", "final_metrics_null",
         "eval_string"],
)
def test_cli_compare_malformed_summary_exit_3(tmp_path, rewrite):
    compare_exit_3(tmp_path, "summary.json", rewrite)


def compare_exit_3(tmp_path, fname, rewrite):
    """Rewrite one report file of a tiny run and assert that load_report
    and `canclab compare` reject it as a DataError naming that file."""
    run_experiment(tiny_cfg(), out_dir=str(tmp_path / "a"))
    path = tmp_path / "a" / fname
    path.write_text(rewrite(path.read_text()))
    with pytest.raises(DataError, match=fname):
        load_report(str(tmp_path / "a"))
    proc = run_cli(["compare", str(tmp_path / "a")])
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


def first_scene(key, value):
    """A rewrite of sp_iou.json that sets key of its first scene to value."""
    def rewrite(text):
        ious = json.loads(text)
        ious[0][key] = value
        return json.dumps(ious)
    return rewrite


@pytest.mark.parametrize(
    "rewrite",
    [
        first_scene("sp_iou", 0.0),
        first_scene("sp_iou", "x"),
        first_scene("sp_iou", math.nan),
        first_scene("sp_iou", 1.5),
        first_scene("sp_iou", True),
        first_scene("scene_id", "3"),
        lambda text: "{}",
    ],
    ids=["zero", "string", "nan", "above_one", "bool", "scene_id_string", "not_a_list"],
)
def test_cli_compare_malformed_sp_iou_exit_3(tmp_path, rewrite):
    # a run writes (inter+1)/(union+1), which lies in (0, 1]
    compare_exit_3(tmp_path, "sp_iou.json", rewrite)


# ---------------------------------------------------------------------------
# sweep


def test_parse_grid():
    grid = parse_grid("algo=vanilla,canc;epsilon=0.1,0.2")
    assert grid == {"algo": ["vanilla", "canc"], "epsilon": [0.1, 0.2]}
    with pytest.raises(ConfigError):
        parse_grid("nonsense")
    with pytest.raises(ConfigError):
        parse_grid("colors=red,blue")


@pytest.mark.parametrize("text, error", [
    ("epsilon=0.1;algo=canc;algo=vanilla", "'algo' given twice"),
    ("algo=canc,vanilla,canc", "'algo' repeats a value"),
    ("epsilon=0.1,0.10", "'epsilon' repeats a value"),  # both cells would be ..._eps0.1
])
def test_parse_grid_rejects_a_repeated_axis_or_value(text, error):
    with pytest.raises(ConfigError, match=error):
        parse_grid(text)


def test_parse_grid_reads_an_epsilon_as_the_config_file_does():
    # float()'s own error text, after the axis
    error = "^grid axis 'epsilon': could not convert string to float: 'abc'$"
    with pytest.raises(ConfigError, match=error):
        parse_grid("epsilon=abc")
    with pytest.raises(ConfigError, match="grid axis 'epsilon': not a finite number: 'nan'"):
        parse_grid("epsilon=0.1,nan")


def test_sweep_produces_all_cells(tmp_path):
    summary = sweep(
        tiny_cfg(),
        grid_text="algo=vanilla,canc;noise=symmetric;epsilon=0.2",
        out_dir=str(tmp_path),
    )
    cells = [row["cell"] for row in summary["rows"]]
    assert cells == ["vanilla_symmetric_eps0.2", "canc_symmetric_eps0.2"]
    for cell in cells:
        assert (tmp_path / cell / "summary.json").exists()
    assert json.loads((tmp_path / "sweep_summary.json").read_text()) == summary
    assert not (tmp_path / "sweep_summary.csv").exists()


def test_sweep_cell_reports_do_not_depend_on_the_output_root(monkeypatch, tmp_path):
    grid = "algo=vanilla,canc;epsilon=0.2"
    sweep(tiny_cfg(), grid_text=grid, out_dir=str(tmp_path / "a"))
    # a relative $CANCLAB_OUT roots the sweep, and each cell, once
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CANCLAB_OUT", "b")
    sweep(tiny_cfg(), grid_text=grid)
    assert (tmp_path / "b" / "tinyrun" / "sweep_summary.json").exists()
    for cell in ("vanilla_symmetric_eps0.2", "canc_symmetric_eps0.2"):
        for fname in ("epochs.csv", "sp_iou.json", "summary.json"):
            a, b = (tmp_path / root / cell / fname for root in ("a", "b/tinyrun"))
            assert a.read_bytes() == b.read_bytes(), (cell, fname)
        summary = json.loads(a.read_text())
        assert summary["name"] == cell
        assert summary["config"]["output"]["dir"] == os.path.join("tinyrun", cell)


def test_prepare_data_holds_one_scene_at_a_time(monkeypatch):
    from canclab import harness

    alive, real_generate = [], harness.generate_scene

    def tracked_generate(*args, **kwargs):
        # the build still holds the scene it wrote last, never an older one
        assert sum(ref() is not None for ref in alive) <= 1
        scene = real_generate(*args, **kwargs)
        alive.append(weakref.ref(scene))
        return scene

    monkeypatch.setattr(harness, "generate_scene", tracked_generate)
    prepare_data(tiny_cfg())
    assert len(alive) == tiny_cfg().data.n_scenes


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_roundtrip(tmp_path):
    manifest = gen_data(tiny_cfg(), out_dir=str(tmp_path))
    assert set(manifest["files"]) == {"full.bin", "train.bin", "modelsel.bin", "eval.bin"}
    train = read_dataset(str(tmp_path / "train.bin"))
    assert train.clean_labels is not None  # noise baked in with originals kept
    assert manifest["files"]["train.bin"]["masks"] == len(train)
    full = read_dataset(str(tmp_path / "full.bin"))
    assert full.clean_labels is None
    assert len(full) == 6 * (128 // 16) ** 2
    assert json.loads((tmp_path / "manifest.json").read_text())["m"] == 16


@pytest.mark.parametrize("ini, noise, noise_modelsel", [
    ("smoke", "none", False),
    ("smoke", "symmetric", False),
    ("smoke", "symmetric", True),
    # 5,120 records of 4,110 bytes: 20 full write chunks and a partial one
    ("default", "symmetric", False),
])
def test_gen_data_files_equal_the_whole_dataset_writer_byte_for_byte(tmp_path, ini, noise,
                                                                     noise_modelsel):
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{ini}.ini"))
    cfg = replace(cfg, noise=replace(cfg.noise, type=noise, noise_modelsel=noise_modelsel))
    for side in ("got", "want"):
        (tmp_path / side).mkdir()
    gen_data(cfg, out_dir=str(tmp_path / "got"))
    whole_dataset_gen_data(cfg, str(tmp_path / "want"))
    for fname in ("full.bin", "train.bin", "modelsel.bin", "eval.bin"):
        assert (tmp_path / "got" / fname).read_bytes() == (tmp_path / "want" / fname).read_bytes()


def file_source_ini(path):
    return TINY.replace("[data]\n", f"[data]\nsource = file\npath = {path}\n", 1)


def test_file_source_from_gen_data_matches_synthetic(tmp_path):
    cfg = tiny_cfg()
    gen_data(cfg, out_dir=str(tmp_path / "d"))
    full = str(tmp_path / "d" / "full.bin")
    from_file = replace(cfg, data=replace(cfg.data, source="file", path=full))
    for syn, got in zip(prepare_data(cfg), prepare_data(from_file)):
        assert len(got) == len(syn)
        for name in ("scene_ids", "rows", "cols", "labels"):
            assert np.array_equal(getattr(got, name), getattr(syn, name)), name
        assert (got.clean_labels is None) == (syn.clean_labels is None)
        if syn.clean_labels is not None:
            assert np.array_equal(got.clean_labels, syn.clean_labels)
        assert np.array_equal(got.patches, syn.patches.astype(np.float32))

    cfg_path = tmp_path / "from_file.ini"
    cfg_path.write_text(file_source_ini(full))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr


def test_synthetic_run_trains_the_networks_of_its_gen_data_file(tmp_path):
    """A run holds its masks at the precision full.bin stores them, so a
    synthetic source and a file source of its gen-data full.bin train the
    same best and final networks, byte for byte."""
    cfg = tiny_cfg()
    cfg = replace(cfg, train=replace(cfg.train, t_max=2))
    gen_data(cfg, out_dir=str(tmp_path))
    from_file = replace(cfg, data=replace(cfg.data, source="file", path=str(tmp_path / "full.bin")))
    results = []
    for c in (cfg, from_file):
        train_ds, modelsel_ds, _ = prepare_data(c)
        results.append(train(train_ds, modelsel_ds, c.train))
    nets = [[b"".join(a.tobytes() for pair in net.params for a in pair)
             for net in (r.best_network, *r.final_networks)] for r in results]
    assert len(nets[0]) == 3 and nets[0] == nets[1]


def test_cli_file_source_rejects_file_with_noise(tmp_path):
    gen_data(tiny_cfg(), out_dir=str(tmp_path / "d"))
    cfg_path = tmp_path / "from_train.ini"
    cfg_path.write_text(file_source_ini(tmp_path / "d" / "train.bin"))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "full.bin" in proc.stderr


def test_cli_file_source_mask_shape_comes_from_the_file(tmp_path):
    gen_data(tiny_cfg(), out_dir=str(tmp_path / "d"))  # m = 16
    text = file_source_ini(tmp_path / "d" / "full.bin").replace("m = 16", "m = 32")
    # TINY's network fits the file's 16 x 16 masks, whatever [data] m says
    cfg_path = tmp_path / "m32.ini"
    cfg_path.write_text(text)
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    # a 17 x 17 kernel fits the 32 x 32 masks [data] m names, not the file's
    cfg_path.write_text(re.sub(r"network = .*", "network = conv(4,17,1) dense(2)", text))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o2")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr


def raw_header(m, channels, count):
    """A writer of a v3 header followed by 64 zero bytes."""
    return lambda path: path.write_bytes(
        struct.pack("<4sIIII", b"CANC", 3, m, channels, count) + b"\x00" * 64
    )


def zero_masks(labels, clean):
    """A writer of a v3 file holding one all-zero 16 x 16 mask per label,
    eight masks to a scene."""
    n = len(labels)
    ds = MaskDataset(
        patches=np.zeros((n, 16, 16, 1)),
        labels=np.array(labels, dtype=np.int64),
        scene_ids=np.arange(n, dtype=np.int64) // 8,
        rows=np.arange(n, dtype=np.int64) % 8,
        cols=np.zeros(n, dtype=np.int64),
        clean_labels=np.array(clean, dtype=np.int64),
    )
    return lambda path: write_dataset(str(path), ds)


@pytest.mark.parametrize(
    "write",
    [
        raw_header(0, 1, 1),
        raw_header(16, 0, 1),
        raw_header(70000, 70000, 1),
        raw_header(16, 1, 2**32 - 1),
        zero_masks([0, 1, 0, 2] + [0, 1] * 30, [NO_LABEL] * 64),
        zero_masks([0, 1] * 32, [NO_LABEL] * 3 + [7] + [NO_LABEL] * 60),
    ],
    ids=["m0", "channels0", "huge_mask", "huge_count", "label_2", "clean_label_7"],
)
def test_cli_file_source_bad_header_exit_3(tmp_path, write):
    path = tmp_path / "bad.bin"
    write(path)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(file_source_ini(path))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_file_source_trailing_bytes_exit_3(tmp_path):
    path = tmp_path / "full.bin"
    n = 16
    write_dataset(
        str(path),
        MaskDataset(
            patches=np.zeros((n, 16, 16, 1)),
            labels=np.zeros(n, dtype=np.int64),
            scene_ids=np.zeros(n, dtype=np.int64),
            rows=np.arange(n, dtype=np.int64),
            cols=np.zeros(n, dtype=np.int64),
        ),
    )
    assert len(read_dataset(str(path))) == n
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 5000)
    with pytest.raises(DataError):
        read_dataset(str(path))
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(file_source_ini(path))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# CLI


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "canclab", *args], capture_output=True, text=True, env=env
    )


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    out = tmp_path / "out"
    proc = run_cli(["run", str(cfg_path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "best modelsel accuracy" in proc.stdout
    assert (out / "summary.json").exists()


def test_cli_env_var_roots_relative_output(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    proc = run_cli(["run", str(cfg_path)], env_extra={"CANCLAB_OUT": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tinyrun" / "summary.json").exists()


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nalgo = sorcery\n")
    proc = run_cli(["run", str(bad)])
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


@pytest.mark.parametrize("algo, batch_size", [
    pytest.param("canc", 32, id="canc"),
    pytest.param("vanilla", 32, id="vanilla"),
    # the smoke config's 264 training rows at B=256: the pair splits the first batch's two chunks
    pytest.param("vanilla", 256, id="vanilla-b256"),
])
def test_cli_numeric_error_exit_4_prints_only_its_line(tmp_path, algo, batch_size):
    """An overflowing step exits 4 with canclab's one line on stderr and no
    numpy warning before it, also from a forked pair's worker."""
    smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.ini")
    with open(smoke, encoding="utf-8") as fh:
        text = fh.read()
    assert "lr = 0.05\n" in text and "algo = canc\n" in text and "batch_size = 32\n" in text
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text.replace("lr = 0.05\n", "lr = 1e300\n")
                        .replace("algo = canc\n", f"algo = {algo}\n")
                        .replace("batch_size = 32\n", f"batch_size = {batch_size}\n"))
    proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")],
                   env_extra={"PYTHONWARNINGS": "default"})
    assert proc.returncode == 4, proc.stderr
    assert re.fullmatch(r"numeric error: non-finite [^\n]*\n", proc.stderr), proc.stderr


def count_scenes(monkeypatch):
    """A list that gains one entry for each scene the harness draws from now on."""
    from canclab import harness

    calls = []
    real_generate = harness.generate_scene

    def counting_generate(*args, **kwargs):
        calls.append(args)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_scene", counting_generate)
    return calls


def exit_2_before_any_scene(monkeypatch, tmp_path, command, text, *args):
    """Run command on the config text, with any further arguments args,
    through cli.main and assert that it returns 2 without drawing a scene."""
    from canclab import cli

    calls = count_scenes(monkeypatch)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text)
    assert cli.main([command, str(cfg_path), "--out", str(tmp_path / "o"), *args]) == 2
    assert calls == []


def test_cli_config_not_utf8_exit_2(tmp_path, capsys):
    from canclab import cli

    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[train]\nalgo = canc\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("command", ["run", "gen-data", "sweep"])
def test_cli_output_path_that_is_a_file_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, command
):
    (tmp_path / "o").write_text("not a directory\n")
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY)
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert str(tmp_path / "o") in err


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("split", ["0.85,0.15,0.0", "0.0,0.5,0.5", "0.5,0.0,0.5"])
def test_cli_zero_split_fraction_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, split, command
):
    text = TINY.replace("split = 0.6,0.2,0.2", f"split = {split}")
    exit_2_before_any_scene(monkeypatch, tmp_path, command, text)
    assert "split fractions" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("m", ["12", "0"])
def test_cli_mask_size_not_dividing_scene_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, m, command
):
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY.replace("m = 16", f"m = {m}"))
    assert f"mask size {m} does not divide scene size 128" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("key, value, error", [
    ("split", "0.9,0.05,0.05", "eval partition is empty"),  # round(0.05 * 6 scenes) = 0
    ("n_scenes", "1", "eval partition is empty"),  # round(0.2 * 1 scene) = 0
    ("split", "0.5,0.0001,0.4999", "modelsel partition is empty"),  # train takes all 192
    ("split", "0.0001,0.5,0.4999", "train partition is empty"),  # round(0.0002 * 192) = 0
    ("split", "0.5,0.2,0.2", "fractions must sum to 1"),
])
def test_cli_split_that_cannot_be_made_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, key, value, error, command
):
    old = {"split": "split = 0.6,0.2,0.2", "n_scenes": "n_scenes = 6"}[key]
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY.replace(old, f"{key} = {value}"))
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("old, new", [
    ("split = 0.6,0.2,0.2", "split = nan,0.5,0.5"),
    ("seed = 0", "seed = 0\ntau_label = inf"),
    ("epsilon = 0.35", "epsilon = nan"),
    ("lr = 0.05", "lr = nan"),
    ("tau_f = 0.45", "tau_f = inf"),
    ("swap_rate = 0.1", "swap_rate = -inf"),
])
def test_cli_non_finite_float_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, old, new, command
):
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY.replace(old, new, 1))
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("value, error", [
    ("channels = 0", "channels must be >= 1"),
    ("building_count = 5,2", "building_count range (5,2)"),
    ("building_side = -2,8", "building_side range (-2,8)"),
    ("building_side = 8,200", "building side up to 200 exceeds scene size 128"),
    ("tau_label = 0", "tau_label must be in (0,1)"),
    ("tau_label = 1", "tau_label must be in (0,1)"),
])
def test_cli_bad_data_value_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, value, error, command
):
    text = TINY.replace("seed = 0", f"seed = 0\n{value}", 1)
    exit_2_before_any_scene(monkeypatch, tmp_path, command, text)
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_network_that_cannot_fit_the_masks_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, command
):
    # at m = 8, TINY's second conv (kernel 3) receives a 2 x 2 input
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY.replace("m = 16", "m = 8"))
    assert "kernel 3 larger than input 2x2" in capsys.readouterr().err


@pytest.mark.parametrize("grid, error", [
    ("algo=vanilla,sorcery", "unknown algorithm 'sorcery'"),
    ("noise=symmetric;epsilon=0.2,1.5", "epsilon must be in [0,1]"),
    ("noise=symmetric,pink", "noise type must be"),
])
def test_cli_sweep_bad_grid_cell_exit_2_before_any_scene(monkeypatch, tmp_path, capsys, grid, error):
    # the bad value is the last cell's, so every cell must be checked first
    exit_2_before_any_scene(monkeypatch, tmp_path, "sweep", TINY, "--grid", grid)
    assert error in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("slope", ["-0.1", "1.5", "nan", "inf"])
def test_cli_lrelu_slope_outside_zero_one_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, slope, command
):
    text = TINY.replace("conv(4,5,2) lrelu(0.1)", f"conv(4,5,2) lrelu({slope})")
    exit_2_before_any_scene(monkeypatch, tmp_path, command, text)
    assert f"lrelu slope must be in [0, 1], got {float(slope)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "gen-data"])
@pytest.mark.parametrize("old, new, error", [
    ("seed = 0", "seed = -1", "[data] seed must be >= 0, got -1"),
    ("seed = 1", "seed = -1", "[noise] seed must be >= 0, got -1"),
    ("seed = 7", "seed = -1", "[train] seed must be >= 0, got -1"),
    ("dir = tinyrun", "dir =", "[output] dir must not be empty"),
])
def test_cli_negative_seed_or_empty_output_dir_exit_2_before_any_scene(
    monkeypatch, tmp_path, capsys, old, new, error, command
):
    exit_2_before_any_scene(monkeypatch, tmp_path, command, TINY.replace(old, new))
    assert error in capsys.readouterr().err


def test_gen_data_builds_no_network(tmp_path):
    cfg = parse_config_text(TINY.replace("m = 16", "m = 8"))
    assert gen_data(cfg, out_dir=str(tmp_path))["files"]["full.bin"]["masks"] == 6 * 16 * 16


def test_cli_data_error_exit_3(tmp_path):
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[data]\nsource = file\npath = {corrupt}\nm = 16\nsplit = 0.6,0.2,0.2\n"
    )
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 3
    assert "data error" in proc.stderr


def test_cli_numeric_error_exit_4(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TINY.replace("lr = 0.05", "lr = 1e18"))
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 4
    assert "numeric error" in proc.stderr


def test_cli_compare_and_gen_data(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    assert run_cli(["run", str(cfg_path), "--out", str(tmp_path / "a")]).returncode == 0
    assert run_cli(["run", str(cfg_path), "--out", str(tmp_path / "b")]).returncode == 0
    proc = run_cli(["compare", str(tmp_path / "a"), str(tmp_path / "b")])
    assert proc.returncode == 0, proc.stderr
    assert "best improved scene" in proc.stdout
    proc = run_cli(["compare", str(tmp_path / "a"), "--json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["per_scene"]
    proc = run_cli(["gen-data", str(cfg_path), "--out", str(tmp_path / "d")])
    assert proc.returncode == 0
    assert (tmp_path / "d" / "train.bin").exists()


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    proc = run_cli(
        ["sweep", str(cfg_path), "--grid", "algo=vanilla;noise=antisymmetric;epsilon=0.3",
         "--out", str(tmp_path / "s")]
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "s" / "sweep_summary.json").read_text())["rows"]


def test_cli_sweep_bad_grid_value_exit_2(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    proc = run_cli(["sweep", str(cfg_path), "--grid", "epsilon=abc", "--out", str(tmp_path / "s")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# config fuzz: every drawn config either fails at load or runs

FUZZ_BASE = {
    "data": {"n_scenes": "3", "scene_size": "32", "m": "8", "split": "0.6,0.2,0.2",
             "building_count": "1,3", "building_side": "4,12"},
    "noise": {"type": "symmetric", "epsilon": "0.3"},
    "train": {"network": "conv(4,3,2) lrelu(0.1) dense(2)", "t_max": "2", "t_k": "1",
              "batch_size": "16", "swap_rate": "0.1"},
    "output": {"dir": "fuzzrun"},
}

# (section, key) -> values to draw, valid and invalid alike
FUZZ_VALUES = {
    ("data", "source"): ["file"],
    ("data", "path"): ["missing.bin", "corrupt.bin"],
    ("data", "n_scenes"): ["1", "2", "5", "0", "-1"],
    ("data", "scene_size"): ["16", "48", "0", "-32"],
    ("data", "m"): ["4", "16", "12", "0", "-8"],
    ("data", "channels"): ["2", "0"],
    ("data", "split"): ["0.5,0.25,0.25", "1,0,0", "0.6,0.2", "nan,0.5,0.5", "0.2,0.2,0.6"],
    ("data", "seed"): ["5", "-1", "x", "123456789012345678901234567890"],
    ("data", "tau_label"): ["0.5", "0", "1", "-0.1"],
    ("data", "building_count"): ["0,0", "5,2", "-1,2", "2,30"],
    ("data", "building_side"): ["1,1", "8,64", "12,4", "32,32", "0,3"],
    ("noise", "type"): ["none", "antisymmetric", "pink"],
    ("noise", "epsilon"): ["0", "0.55", "1", "1.5", "-0.1", "nan"],
    ("noise", "seed"): ["0", "-2", "2.5"],
    ("noise", "noise_modelsel"): ["true", "maybe"],
    ("train", "algo"): ["vanilla", "coteaching", "sorcery"],
    ("train", "network"): ["dense(2)", "conv(2,3,1) lrelu(0) conv(3,3,2) dense(2)",
                           "conv(4,40,1) dense(2)", "dense(3)", "conv(4,3", "lrelu(2) dense(2)",
                           "dense(2) lrelu(0.5)", ""],
    ("train", "lr"): ["0", "0.5", "-1", "1e18", "1e300"],
    ("train", "t_max"): ["1", "3", "0"],
    ("train", "t_k"): ["3", "0"],
    ("train", "batch_size"): ["1", "7", "0", "1000"],
    ("train", "tau_f"): ["0", "0.9", "1", "-0.5"],
    ("train", "swap_rate"): ["0", "0.45", "0.9", "1", "-0.1"],
    ("train", "seed"): ["0", "-3", "99999999999999999999"],
    ("train", "epochs"): ["3"],
    ("bogus", "key"): ["1"],
    ("output", "dir"): ["", "nested/run"],
}

FUZZ_GRIDS = ["algo=vanilla,canc", "epsilon=0.2,abc", "epsilon=nan", "noise=none,pink",
              "algo=vanilla;algo=canc", "epsilon=0.1,0.10", "", "seed=1",
              "noise=antisymmetric;epsilon=0.2,0.7", "algo=canc,sorcery;epsilon=0.1"]


def fuzz_config(rng):
    """FUZZ_BASE with one to three (section, key) values drawn from FUZZ_VALUES."""
    sections = {section: dict(keys) for section, keys in FUZZ_BASE.items()}
    for section, key in rng.sample(sorted(FUZZ_VALUES), rng.randint(1, 3)):
        sections.setdefault(section, {})[key] = rng.choice(FUZZ_VALUES[section, key])
    return ini_text(sections)


def ini_text(sections):
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )


def corrupt_report(rng, run_dir):
    """Damage one file of a finished run's report in one of the ways a disk,
    an editor or another tool might; returns what was done."""
    fname = rng.choice(["summary.json", "sp_iou.json"])
    path = run_dir / fname
    how = rng.choice(["delete", "truncate", "set"])
    if how == "delete":
        path.unlink()
    elif how == "truncate":
        path.write_bytes(path.read_bytes()[: rng.randrange(path.stat().st_size)])
    else:
        obj = json.loads(path.read_text())
        keys = (["name", "config", "best", "final_metrics", "files"] if fname == "summary.json"
                else [0])
        target, key = obj, rng.choice(keys)
        while isinstance(target[key], dict) and rng.random() < 0.6:
            target, key = target[key], rng.choice(sorted(target[key]))
        target[key] = rng.choice([None, 3, "x", [], {}, -1.5])
    return f"{how} {fname}"


def test_cli_config_fuzz_fails_at_load_or_runs(monkeypatch, tmp_path, capsys):
    """About 50 seeded configs, sweep grids and damaged reports through
    cli.main: each returns 0, 2, 3 or 4, never raises, and an exit 2 draws
    no scene."""
    import random

    from canclab import cli

    scenes = count_scenes(monkeypatch)
    monkeypatch.delenv("CANCLAB_OUT", raising=False)
    good = tmp_path / "good"
    (tmp_path / "good.ini").write_text(ini_text(FUZZ_BASE))
    assert cli.main(["run", str(tmp_path / "good.ini"), "--out", str(good)]) == 0
    findings = []
    for case in range(50):
        rng = random.Random(case)
        work = tmp_path / f"case{case}"
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "corrupt.bin").write_bytes(b"CANC" + bytes(rng.randrange(256) for _ in range(40)))
        text = fuzz_config(rng)
        (work / "exp.ini").write_text(text)
        command = ["run", "run", "run", "run", "gen-data", "sweep", "compare", "compare"][case % 8]
        if command == "compare":
            bad = work / "bad"
            shutil.copytree(good, bad)
            text = corrupt_report(rng, bad)
            argv = ["compare", str(good), str(bad)] + rng.choice([[], ["--json"]])
        else:
            argv = [command, "exp.ini"] + rng.choice([[], ["--out", "o"]])
            if command == "sweep":
                argv += ["--grid", rng.choice(FUZZ_GRIDS)]
        scenes.clear()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a finding
            findings.append((case, argv, text, repr(exc)))
            continue
        if code not in (0, 2, 3, 4) or (code == 2 and scenes):
            findings.append((case, argv, text, f"exit {code} after {len(scenes)} scenes"))
    capsys.readouterr()
    assert findings == []
