"""Data pipeline tests: scene generation, tiling, labeling, splits, and the
binary dataset format."""

import os
import struct

import numpy as np
import pytest

from canclab import (
    ConfigError,
    DataConfig,
    DataError,
    MaskDataset,
    Scene,
    build_mask_dataset,
    generate_scene,
    read_dataset,
    split_dataset,
    write_dataset,
)
from canclab.config import parse_config_text
from canclab.data import NO_LABEL, _split_indices
from oracles import build_then_split, concatenated_mask_dataset


def small_params(**kw):
    base = dict(scene_size=64, building_count=(2, 4), building_side=(8, 16), seed=0)
    base.update(kw)
    return DataConfig(**base)


# ---------------------------------------------------------------------------
# scenes


def test_scene_generation_is_deterministic():
    a = generate_scene(small_params(), scene_id=5)
    b = generate_scene(small_params(), scene_id=5)
    assert np.array_equal(a.image, b.image) and np.array_equal(a.gt, b.gt)


def test_scene_ids_give_distinct_scenes():
    a = generate_scene(small_params(), scene_id=0)
    b = generate_scene(small_params(), scene_id=1)
    assert not np.array_equal(a.image, b.image)


def test_scene_pixels_in_unit_range_and_gt_binary():
    scene = generate_scene(small_params(pixel_noise=0.1))
    assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
    assert set(np.unique(scene.gt)) <= {0, 1}
    assert scene.gt.sum() > 0  # at least one building landed


def test_buildings_brighter_than_background():
    scene = generate_scene(small_params(pixel_noise=0.0))
    assert scene.image[scene.gt == 1].min() > scene.image[scene.gt == 0].max()


def test_scene_param_validation():
    with pytest.raises(ConfigError):
        DataConfig(scene_size=32, building_side=(8, 64))  # building exceeds scene
    with pytest.raises(ConfigError):
        DataConfig(building_count=(5, 2))
    with pytest.raises(ConfigError):
        DataConfig(pixel_noise=-0.1)
    with pytest.raises(ConfigError):  # at load, before any scene is built
        parse_config_text("[data]\nbuilding_count = 5,2\n")
    # a file source generates no scenes, so its scene knobs go unchecked
    DataConfig(source="file", path="masks.bin", building_count=(5, 2))


@pytest.mark.parametrize("m", [12, 0, -16])
def test_mask_size_must_divide_scene_size_at_load(m):
    with pytest.raises(ConfigError, match="does not divide"):
        DataConfig(scene_size=64, m=m)
    DataConfig(source="file", path="masks.bin", scene_size=64, m=m)  # the file decides


def test_scene_shape_validation():
    with pytest.raises(DataError):
        Scene(image=np.zeros((8, 8)), gt=np.zeros((8, 8)))  # missing channel axis
    with pytest.raises(DataError):
        Scene(image=np.zeros((8, 6, 1)), gt=np.zeros((8, 6)))  # not square
    with pytest.raises(DataError):
        Scene(image=np.zeros((8, 8, 1)), gt=np.zeros((4, 4)))  # gt mismatch


# ---------------------------------------------------------------------------
# tiling and labeling


def gt_slice(scene, m, r, c):
    """The ground truth under the mask in grid row r, column c, cut by
    hand from the scene."""
    return scene.gt[r * m : (r + 1) * m, c * m : (c + 1) * m]


def test_tiling_reassembles_scene_exactly():
    scene = generate_scene(small_params())
    m = 16
    ds = build_mask_dataset([scene], 1, m, 0.01)
    g = scene.size // m
    assert ds.patches.shape == (g * g, m, m, 1)
    expect = scene.image.astype(np.float32)
    rebuilt = np.zeros_like(expect)
    for patch, r, c in zip(ds.patches, ds.rows, ds.cols):
        rebuilt[r * m : (r + 1) * m, c * m : (c + 1) * m] = patch
    assert np.array_equal(rebuilt, expect)


def test_tiling_is_row_major():
    scene = generate_scene(small_params())
    ds = build_mask_dataset([scene], 1, 16, 0.01)
    g = scene.size // 16
    assert np.array_equal(ds.rows * g + ds.cols, np.arange(g * g))


def test_tiling_rejects_non_divisor():
    scene = generate_scene(small_params())
    with pytest.raises(ConfigError, match="does not divide"):
        build_mask_dataset([scene], 1, 12, 0.01)


def one_mask_scene(m, built):
    """A one-mask scene of side m whose first `built` ground-truth pixels
    are buildings."""
    gt = np.zeros((m, m), dtype=np.uint8)
    gt.flat[:built] = 1
    return Scene(image=np.zeros((m, m, 1)), gt=gt)


def test_label_threshold_is_inclusive():
    m = 10  # area 100, tau 0.05 -> threshold exactly 5 pixels
    labels = [build_mask_dataset([one_mask_scene(m, k)], 1, m, 0.05).labels[0] for k in (4, 5, 6)]
    assert labels == [0, 1, 1]  # ratio == tau counts as positive


def test_labels_match_bruteforce_over_dataset():
    scene = generate_scene(small_params(seed=9))
    ds = build_mask_dataset([scene], 1, m=8, tau_label=0.01)
    expect = [int(gt_slice(scene, 8, r, c).sum() / 64.0 >= 0.01) for r, c in zip(ds.rows, ds.cols)]
    assert ds.labels.tolist() == expect


def test_dataset_labels_match_bruteforce_on_a_pixel_count_boundary():
    # tau is the building-pixel fraction of a partly covered mask, so the
    # masks with exactly that count sit on the threshold; m = 12 makes the
    # fraction count/144, which is inexact in binary
    m = 12
    scene = generate_scene(small_params(scene_size=96, seed=3))
    tau = boundary_tau(scene, m)
    ds = build_mask_dataset([scene], 1, m=m, tau_label=tau)
    counts = np.array([gt_slice(scene, m, r, c).sum() for r, c in zip(ds.rows, ds.cols)])
    boundary = round(tau * m * m)
    assert ds.labels.tolist() == [int(k / (m * m) >= tau) for k in counts]
    assert ds.labels[counts == boundary].all()
    assert not ds.labels[counts < boundary].any()
    assert (counts < boundary).any() and (counts > boundary).any()


def test_build_mask_dataset_orders_scene_major():
    scenes = [generate_scene(small_params(), scene_id=i) for i in range(3)]
    ds = build_mask_dataset(scenes, 3, m=16, tau_label=0.01)
    per = (64 // 16) ** 2
    assert len(ds) == 3 * per
    assert np.array_equal(ds.scene_ids[:per], np.zeros(per, dtype=np.int64))
    assert np.array_equal(np.unique(ds.scene_ids), [0, 1, 2])


def boundary_tau(scene, m):
    """A tau_label that partly covered masks of the scene meet exactly: the
    median building-pixel count of those masks over m * m."""
    g = scene.size // m
    counts = np.array([gt_slice(scene, m, r, c).sum() for r in range(g) for c in range(g)])
    partial = np.sort(counts[(counts > 0) & (counts < m * m)])
    return int(partial[len(partial) // 2]) / (m * m)


@pytest.mark.parametrize("tau", ["0.01", "boundary"])
@pytest.mark.parametrize("n_scenes", [1, 3])
@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("channels", [1, 3])
def test_build_mask_dataset_matches_concatenated_oracle_bitwise(channels, m, n_scenes, tau):
    scenes = [generate_scene(small_params(channels=channels, seed=5), scene_id=10 + i)
              for i in range(n_scenes)]
    tau_label = 0.01 if tau == "0.01" else boundary_tau(scenes[0], m)
    expect = concatenated_mask_dataset(scenes, m, tau_label)
    assert_same_masks(build_mask_dataset(iter(scenes), n_scenes, m, tau_label), expect)


def assert_same_masks(got, expect):
    assert got.clean_labels is None and expect.clean_labels is None
    assert got.patches.dtype == np.float32
    for name in ("patches", "labels", "scene_ids", "rows", "cols"):
        a, b = getattr(got, name), getattr(expect, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("build", [
    lambda scenes, m: build_mask_dataset(scenes, len(scenes), m, 0.01),
    lambda scenes, m: concatenated_mask_dataset(scenes, m, 0.01),
], ids=["build", "oracle"])
def test_build_mask_dataset_rejects_no_scenes_and_a_non_divisor(build):
    with pytest.raises(ConfigError, match="no scenes"):
        build([], 16)
    with pytest.raises(ConfigError, match="does not divide"):
        build([generate_scene(small_params())], 12)


def test_build_mask_dataset_rejects_a_scene_count_or_size_it_was_not_given():
    scene = generate_scene(small_params())
    with pytest.raises(ConfigError, match="1 scenes given, 2 expected"):
        build_mask_dataset([scene], 2, 16, 0.01)
    with pytest.raises(ConfigError, match="more than the 1 scenes"):
        build_mask_dataset([scene, scene], 1, 16, 0.01)
    with pytest.raises(DataError, match="unlike the first scene"):
        build_mask_dataset([scene, generate_scene(small_params(scene_size=128))], 2, 16, 0.01)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("split", [(0.6, 0.2, 0.2), (0.8, 0.0, 0.2)])
@pytest.mark.parametrize("n_scenes", [3, 6])
@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("channels", [1, 3])
def test_build_into_index_sets_matches_build_then_split_bitwise(channels, m, n_scenes, split, seed):
    # scene ids start at 10, not 0
    scenes = [generate_scene(small_params(channels=channels, seed=5), scene_id=10 + i)
              for i in range(n_scenes)]
    sets = _split_indices(np.repeat([s.scene_id for s in scenes], (64 // m) ** 2), split, seed)
    got = build_mask_dataset(iter(scenes), n_scenes, m, 0.01, sets)
    expect = build_then_split(scenes, m, 0.01, split, seed)
    assert len(got) == 3
    for part, want in zip(got, expect):
        assert_same_masks(part, want)
    if m == 32 and split[1] > 0:
        # 4 masks a scene: some pool scene gives modelsel no rows
        pool = np.setdiff1d([s.scene_id for s in scenes], got[2].scene_ids)
        assert not set(pool) <= set(got[1].scene_ids)


def test_build_into_every_row_and_the_partitions_is_the_whole_and_its_split():
    scenes = [generate_scene(small_params(), scene_id=i) for i in range(4)]
    whole = build_mask_dataset(scenes, 4, 16, 0.01)
    sets = _split_indices(whole.scene_ids, (0.6, 0.2, 0.2), 1)
    got = build_mask_dataset(iter(scenes), 4, 16, 0.01, (np.arange(len(whole)),) + sets)
    for part, want in zip(got, (whole,) + split_dataset(whole, (0.6, 0.2, 0.2), 1)):
        assert_same_masks(part, want)
    # an empty set gives an empty dataset of the masks' shape
    empty, = build_mask_dataset(scenes, 4, 16, 0.01, [np.empty(0, dtype=np.int64)])
    assert empty.patches.shape == (0, 16, 16, 1) and len(empty) == 0


@pytest.mark.parametrize("idx", [[2, 1], [0, 64], [-1, 3], [[0, 1]]])
def test_build_rejects_an_index_set_that_is_not_ascending_rows(idx):
    scenes = [generate_scene(small_params(), scene_id=i) for i in range(4)]  # 64 masks
    with pytest.raises(ValueError, match="ascending row indices in \\[0, 64\\)"):
        build_mask_dataset(scenes, 4, 16, 0.01, [np.arange(3), idx])


def test_build_into_index_sets_keeps_the_scene_count_and_shape_checks():
    scene = generate_scene(small_params())
    sets = [np.arange(4)]
    with pytest.raises(ConfigError, match="1 scenes given, 2 expected"):
        build_mask_dataset([scene], 2, 16, 0.01, sets)
    with pytest.raises(ConfigError, match="more than the 1 scenes"):
        build_mask_dataset([scene, scene], 1, 16, 0.01, sets)
    with pytest.raises(DataError, match="unlike the first scene"):
        build_mask_dataset([scene, generate_scene(small_params(scene_size=128))], 2, 16, 0.01, sets)


# ---------------------------------------------------------------------------
# splits


def make_dataset(n_scenes=10, m=16):
    params = small_params()
    scenes = [generate_scene(params, scene_id=i) for i in range(n_scenes)]
    return build_mask_dataset(scenes, n_scenes, m=m, tau_label=0.01)


def test_split_disjoint_and_exhaustive():
    ds = make_dataset()
    tr, ms, ev = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    assert len(tr) + len(ms) + len(ev) == len(ds)

    def keys(part):
        return set(zip(part.scene_ids.tolist(), part.rows.tolist(), part.cols.tolist()))

    k_tr, k_ms, k_ev = keys(tr), keys(ms), keys(ev)
    assert not (k_tr & k_ms) and not (k_tr & k_ev) and not (k_ms & k_ev)
    assert len(k_tr | k_ms | k_ev) == len(ds)


def test_split_eval_takes_whole_scenes():
    ds = make_dataset(n_scenes=10, m=16)
    per_scene = (64 // 16) ** 2
    _, _, ev = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    ids, counts = np.unique(ev.scene_ids, return_counts=True)
    assert len(ids) == 2  # round(0.2 * 10)
    assert np.all(counts == per_scene)


def test_split_deterministic_and_seed_sensitive():
    ds = make_dataset()
    a = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
    b = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
    c = split_dataset(ds, (0.6, 0.2, 0.2), seed=2)
    assert np.array_equal(a[0].labels, b[0].labels)
    assert np.array_equal(a[0].patches, b[0].patches)
    assert not np.array_equal(np.unique(a[2].scene_ids), np.unique(c[2].scene_ids)) or not np.array_equal(
        a[0].labels, c[0].labels
    )


def test_split_rejects_bad_fractions():
    ds = make_dataset(n_scenes=4)
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.2, 0.2), seed=0)  # does not sum to 1
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.9, -0.1, 0.2), seed=0)


def test_split_rejects_empty_requested_partition():
    ds = make_dataset(n_scenes=3)
    # eval fraction positive but too small to claim a whole scene
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.85, 0.05, 0.1), seed=0)


def test_zero_fraction_partitions_allowed():
    ds = make_dataset(n_scenes=5)
    tr, ms, ev = split_dataset(ds, (0.8, 0.0, 0.2), seed=0)
    assert len(ms) == 0 and len(tr) > 0 and len(ev) > 0


# ---------------------------------------------------------------------------
# binary format


def file_version(path):
    with open(path, "rb") as fh:
        return struct.unpack("<4sI", fh.read(8))[1]


def assert_same_origin(back, ds):
    assert np.array_equal(back.scene_ids, ds.scene_ids)
    assert np.array_equal(back.rows, ds.rows)
    assert np.array_equal(back.cols, ds.cols)


def test_dataset_file_roundtrip(tmp_path):
    ds = make_dataset(n_scenes=2, m=8)
    path = os.path.join(tmp_path, "d.bin")
    write_dataset(path, ds)
    assert file_version(path) == 3
    back = read_dataset(path)
    assert back.m == ds.m and back.channels == ds.channels and len(back) == len(ds)
    assert np.array_equal(back.labels, ds.labels)
    assert back.clean_labels is None
    assert_same_origin(back, ds)
    # patches are held at the file's float32, so they read back as written
    assert (back.patches.dtype, back.patches.tobytes()) == (np.float32, ds.patches.tobytes())


def test_dataset_file_roundtrip_with_clean_labels(tmp_path):
    ds = make_dataset(n_scenes=2, m=8)
    noisy = ds.with_labels(1 - ds.labels, clean_labels=ds.labels)
    path = os.path.join(tmp_path, "d2.bin")
    write_dataset(path, noisy)
    back = read_dataset(path)
    assert np.array_equal(back.labels, noisy.labels)
    assert np.array_equal(back.clean_labels, ds.labels)
    assert_same_origin(back, ds)


def test_dataset_file_v3_layout(tmp_path):
    # one packed record: noisy u8, clean u8, scene/row/col int32, patch
    ds = make_dataset(n_scenes=2, m=8).take([70])
    path = os.path.join(tmp_path, "one.bin")
    write_dataset(path, ds)
    raw = open(path, "rb").read()
    assert len(raw) == 20 + 14 + 8 * 8 * 4
    label, clean, scene, row, col = struct.unpack("<BBiii", raw[20:34])
    assert (label, clean) == (ds.labels[0], NO_LABEL)
    assert (scene, row, col) == (1, 0, 6)
    assert raw[34:] == ds.patches.astype("<f4").tobytes()


@pytest.mark.parametrize("clean_labels", [None, "labels"])
def test_dataset_file_rejects_clean_labels_on_some_records_only(tmp_path, clean_labels):
    ds = make_dataset(n_scenes=1, m=8)
    if clean_labels:
        ds = ds.with_labels(ds.labels, clean_labels=ds.labels)
    path = os.path.join(tmp_path, "mixed.bin")
    write_dataset(path, ds)
    data = bytearray(open(path, "rb").read())
    # record 1's clean byte: after the 20-byte header and one 14 + 8*8*4 byte record
    data[20 + (14 + 8 * 8 * 4) + 1] = NO_LABEL if clean_labels else 0
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(DataError, match="some records have a clean label"):
        read_dataset(path)


def test_dataset_file_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        read_dataset(path)


def test_dataset_file_truncated(tmp_path):
    ds = make_dataset(n_scenes=1, m=8)
    path = os.path.join(tmp_path, "t.bin")
    write_dataset(path, ds)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:-10])
    with pytest.raises(DataError):
        read_dataset(path)


@pytest.mark.parametrize("version", [1, 2, 99])
def test_dataset_file_bad_version(tmp_path, version):
    ds = make_dataset(n_scenes=1, m=8)
    path = os.path.join(tmp_path, "v.bin")
    write_dataset(path, ds)
    data = bytearray(open(path, "rb").read())
    data[4] = version  # version byte (little-endian u32)
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(DataError):
        read_dataset(path)


def test_take_preserves_origin_fields():
    ds = make_dataset(n_scenes=2, m=16)
    sub = ds.take([3, 1, 7])
    assert len(sub) == 3
    assert sub.labels[0] == ds.labels[3]
    assert sub.rows[2] == ds.rows[7]


def test_mask_dataset_length_validation():
    ds = make_dataset(n_scenes=1, m=16)
    with pytest.raises(DataError):
        MaskDataset(
            patches=ds.patches,
            labels=ds.labels[:-1],
            scene_ids=ds.scene_ids,
            rows=ds.rows,
            cols=ds.cols,
        )
