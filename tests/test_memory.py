"""Peak memory of the data build, of a training step and of prediction on
the default config, as tracemalloc sees it: numpy reports its data buffers
to tracemalloc, so a transient copy of the dataset or a large forward
shows in the peak."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np

from canclab import (NetworkSpec, forward, gen_data, generate_scene, init_network, parse_layers,
                     predict, sgd_step)
from canclab.config import load_config
from canclab.harness import prepare_data

DEFAULT_INI = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "default.ini")
MiB = 1 << 20


def traced_peak(fn, *args):
    """fn(*args) and the most bytes allocated at once while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def held_bytes(parts):
    return sum(a.nbytes for ds in parts
               for a in (ds.patches, ds.labels, ds.scene_ids, ds.rows, ds.cols, ds.clean_labels)
               if a is not None)


def test_prepare_data_holds_its_partitions_and_one_scene():
    """The build writes each scene's masks straight into the partitions, so
    at its peak it holds them and one scene: the scene being tiled and its
    tile copy, or the scene being drawn and its pixel-noise draw. The whole
    dataset, as large as the partitions together, never exists. The
    partitions hold their 5,120 masks in float32, 20 MiB of patches."""
    cfg = load_config(DEFAULT_INI)
    parts, peak = traced_peak(prepare_data, cfg)
    scene = generate_scene(cfg.data)
    one_scene = scene.image.nbytes + scene.gt.nbytes  # 2.25 MiB
    assert all(ds.patches.dtype == np.float32 for ds in parts)
    assert held_bytes(parts) > 20 * MiB
    assert peak <= held_bytes(parts) + 2 * one_scene, peak / MiB


def test_gen_data_holds_its_partitions_and_one_write_chunk(tmp_path):
    """gen-data writes the partitions prepare_data builds, each file in
    chunks of about 1 MiB of records, and places full.bin's rows from the
    partitions by position, so its peak is prepare_data's: the partitions
    plus one scene, and one write chunk after the scenes are gone. Building
    the whole dataset next to the partitions and each file as one records
    array read 60.4 MiB."""
    cfg = load_config(DEFAULT_INI)
    parts = prepare_data(cfg)
    scene = generate_scene(cfg.data)
    one_scene = scene.image.nbytes + scene.gt.nbytes
    _, peak = traced_peak(gen_data, cfg, str(tmp_path))
    assert peak <= held_bytes(parts) + 2 * one_scene + MiB, peak / MiB


def test_file_source_prepare_data_widens_only_the_partitions(tmp_path):
    """A file source is split as read, in the file's float32: the peak
    holds the records and the float32 partitions, never the file widened.
    The 1 MiB covers the file's int64 label and grid columns, which live
    as long as the records."""
    cfg = load_config(DEFAULT_INI)
    gen_data(cfg, out_dir=str(tmp_path))
    path = str(tmp_path / "full.bin")
    from_file = replace(cfg, data=replace(cfg.data, source="file", path=path))
    parts, peak = traced_peak(prepare_data, from_file)
    assert peak <= os.path.getsize(path) + held_bytes(parts) + MiB, peak / MiB


def test_predict_memory_does_not_grow_with_the_row_count():
    """predict forwards fixed chunks of rows, so one bound holds at any row
    count: a 128-row chunk of the default network needs about 6.0 MiB. A
    float32 input, as a dataset holds it, is widened one chunk at a time,
    which adds that chunk's 1 MiB."""
    cfg = load_config(DEFAULT_INI)
    net = init_network(NetworkSpec(32, 1, parse_layers(cfg.train.network), seed=1))
    x64 = np.random.default_rng(0).random((3584, 32, 32, 1))
    for x in (x64, x64.astype(np.float32)):
        for n in (512, 3584):
            _, peak = traced_peak(predict, net, x[:n])
            assert peak <= 8 * MiB, (x.dtype, n, peak / MiB)


def test_training_step_memory_is_its_caches_and_one_chunk():
    """A step forwards and backprops fixed 128-row chunks, so its peak is
    the caches the forward holds for the step, 20.6 KiB a row (the float32
    input widened and the two leaky ReLU activations), plus one chunk's
    working set, 7.7 MiB as measured. Forwarded whole, the batch's im2col
    and dW copies grew with it: 40.3 MiB at 512 rows, 161.3 MiB at 2048."""
    cfg = load_config(DEFAULT_INI)
    net = init_network(NetworkSpec(32, 1, parse_layers(cfg.train.network), seed=1))
    per_row = 8 * (32 * 32 * 1 + 14 * 14 * 6 + 6 * 6 * 12)
    rng = np.random.default_rng(0)
    for n in (512, 2048):
        x, y = rng.random((n, 32, 32, 1), dtype=np.float32), rng.integers(0, 2, size=n)
        _, peak = traced_peak(lambda: sgd_step(net, y, forward(net, x), 0.1))
        assert peak <= n * per_row + 9 * MiB, (n, peak / MiB)
