"""Scene generation, tiling into masks, labeling, splits, and dataset files.

A "mask" is an m x m image patch; its binary label says whether the
building fraction of the ground-truth raster under it reaches tau_label.
build_mask_dataset is the one tiling and labelling path: it tags each mask
with its scene id and grid position (rows, cols). It has one build path,
over sorted index sets into the scene-major whole: each scene's masks are
scattered straight into one preallocated array per set, so a run's
(train, modelsel, eval) partitions are built without the whole dataset
ever being held; the whole is the one set of every row. Synthetic scenes
stand in for real satellite/label imagery: axis-aligned rectangular
buildings on a darker background, plus pixel noise. DataConfig, the [data]
config section, holds the generator's knobs and the mask size, labeling
threshold, split and seed, and gives a synthetic source's partition index
sets. A file source is split by split_dataset instead.

Masks are held in float32, the precision a dataset file stores: the build
rounds each scene's tiles once, read_dataset returns the file's patches as
they are, and write_dataset writes them back unchanged, so a synthetic run
and a run from its gen-data full.bin see the same bits. The network widens
its input to float64 batch by batch (nn.forward, nn.predict).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError

MAGIC = b"CANC"
_HEADER = struct.Struct("<4sIIII")  # magic, version, m, channels, count


@dataclass(frozen=True, eq=False)
class Scene:
    """One raster scene: image (n,n,C) in [0,1], ground truth (n,n) in {0,1}."""

    image: np.ndarray
    gt: np.ndarray
    scene_id: int = 0

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        gt = np.asarray(self.gt)
        if img.ndim != 3:
            raise DataError(f"scene image must be (n,n,C), got shape {img.shape}")
        if img.shape[0] != img.shape[1]:
            raise DataError("scene image must be square")
        if gt.shape != img.shape[:2]:
            raise DataError("ground truth must match the image spatially")
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "gt", gt.astype(np.uint8))

    @property
    def size(self) -> int:
        return self.image.shape[0]


@dataclass(frozen=True)
class DataConfig:
    """The [data] section: where the masks come from and how they are cut,
    labeled and split. With source = synthetic, generate_scene reads
    scene_size, channels, seed and the building count and side ranges;
    both ranges are inclusive and are checked here, and so are channels
    >= 1, tau_label in (0, 1), that m divides scene_size and that the split
    leaves no partition empty. Either source needs seed >= 0 and split
    fractions > 0 that sum to 1."""

    source: str = "synthetic"
    path: str = ""
    n_scenes: int = 20
    scene_size: int = 512
    channels: int = 1
    m: int = 32
    tau_label: float = 0.01
    split: tuple = (0.7, 0.15, 0.15)
    seed: int = 0
    building_count: tuple = (8, 24)
    building_side: tuple = (16, 64)

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"data source must be synthetic or file, got {self.source!r}")
        if any(f <= 0 for f in self.split):
            raise ConfigError(f"split fractions must all be > 0, got {self.split}")
        _split_fractions(self.split)
        if self.seed < 0:
            raise ConfigError(f"[data] seed must be >= 0, got {self.seed}")
        if self.source == "file":
            if not self.path:
                raise ConfigError("data source 'file' requires a path")
            return
        if self.n_scenes < 1 or self.channels < 1:
            raise ConfigError(
                f"n_scenes and channels must be >= 1, got {self.n_scenes} and {self.channels}"
            )
        if self.m < 1 or self.scene_size % self.m != 0:
            raise ConfigError(f"mask size {self.m} does not divide scene size {self.scene_size}")
        self.split_indices()
        for name in ("building_count", "building_side"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 0:
                raise ConfigError(f"{name} range ({lo},{hi}) is empty or negative")
        if self.building_side[1] > self.scene_size:
            raise ConfigError(
                f"building side up to {self.building_side[1]} exceeds scene size {self.scene_size}"
            )
        _check_tau(self.tau_label)

    def split_indices(self):
        """A synthetic source's sorted (train, modelsel, eval) row indices
        into the mask dataset its scenes give: _split_indices on the scene
        ids build_mask_dataset will tag, scene i's (scene_size / m)^2 masks
        with id i. They are known before any scene is drawn, so load time
        already rejects a split that leaves a partition empty."""
        scene_ids = np.repeat(np.arange(self.n_scenes), (self.scene_size // self.m) ** 2)
        return _split_indices(scene_ids, self.split, self.seed)


_PLACEMENT_ATTEMPTS = 40  # rejection-sampling budget per building
# a building's or the background's intensity is drawn from its range, then
# every pixel gains uniform noise in +-_PIXEL_NOISE: so every pixel lies in
# [0.01, 0.99], and every building pixel is brighter than every background one
_BUILDING_INTENSITY = (0.55, 0.95)
_BACKGROUND_INTENSITY = (0.05, 0.45)
_PIXEL_NOISE = 0.04


def generate_scene(d: DataConfig, scene_id: int = 0) -> Scene:
    """Render one synthetic scene, deterministic in (d.seed, scene_id).

    Buildings are non-overlapping axis-aligned rectangles; placement uses
    rejection sampling with a fixed attempt budget, so crowded parameter
    choices may yield fewer buildings than drawn.
    """
    n, c = d.scene_size, d.channels
    rng = np.random.default_rng(np.random.SeedSequence((d.seed, scene_id)))
    image = rng.uniform(*_BACKGROUND_INTENSITY, size=(n, n, c))
    gt = np.zeros((n, n), dtype=np.uint8)

    count = int(rng.integers(d.building_count[0], d.building_count[1] + 1))
    for _ in range(count):
        h = int(rng.integers(d.building_side[0], d.building_side[1] + 1))
        w = int(rng.integers(d.building_side[0], d.building_side[1] + 1))
        for _attempt in range(_PLACEMENT_ATTEMPTS):
            r = int(rng.integers(0, n - h + 1))
            col = int(rng.integers(0, n - w + 1))
            if not gt[r : r + h, col : col + w].any():
                image[r : r + h, col : col + w, :] = rng.uniform(*_BUILDING_INTENSITY, size=c)
                gt[r : r + h, col : col + w] = 1
                break

    image += rng.uniform(-_PIXEL_NOISE, _PIXEL_NOISE, size=(n, n, c))
    return Scene(image=image, gt=gt, scene_id=scene_id)


def _grid(scene: Scene, m: int):
    """The scene's image and ground truth as (g, g, m, m, C) and (g, g, m, m)
    views: entry [r, c] is the m x m patch in grid row r, column c."""
    n = scene.size
    if m < 1 or n % m != 0:
        raise ConfigError(f"mask size {m} does not divide scene size {n}")
    g = n // m
    image = scene.image.reshape(g, m, g, m, -1).transpose(0, 2, 1, 3, 4)
    return image, scene.gt.reshape(g, m, g, m).transpose(0, 2, 1, 3)


def _check_tau(tau_label: float):
    if not 0 < tau_label < 1:
        raise ConfigError(f"tau_label must be in (0,1), got {tau_label}")


def _label_patches(gt_patches: np.ndarray, tau_label: float) -> np.ndarray:
    """The labeling rule, one int64 label per ground-truth patch of
    gt_patches (K, ...): 1 iff the patch's building-pixel fraction reaches
    tau_label (inclusive)."""
    _check_tau(tau_label)
    flat = gt_patches.reshape(len(gt_patches), -1)
    return (flat.sum(axis=1) / flat.shape[1] >= tau_label).astype(np.int64)


@dataclass(eq=False)
class MaskDataset:
    """A flat collection of labeled masks tagged with their scene/grid origin.

    labels are what a trainer sees; clean_labels (when present) keep the
    pre-noise truth for diagnostics only. patches are float32 as the build
    and read_dataset give them; the network reads any float array, widened
    to float64.
    """

    patches: np.ndarray  # (N, m, m, C) float32
    labels: np.ndarray  # (N,) int64 in {0,1}
    scene_ids: np.ndarray  # (N,) int64
    rows: np.ndarray  # (N,) int64
    cols: np.ndarray  # (N,) int64
    clean_labels: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.patches) == len(self.scene_ids) == len(self.rows) == len(self.cols) == n):
            raise DataError("mask dataset arrays have mismatched lengths")

    def __len__(self):
        return len(self.labels)

    @property
    def m(self) -> int:
        return self.patches.shape[1]

    @property
    def channels(self) -> int:
        return self.patches.shape[3]

    def take(self, idx) -> "MaskDataset":
        """The masks at rows idx, copied at the patches' own precision."""
        idx = np.asarray(idx, dtype=np.int64)
        clean = None if self.clean_labels is None else self.clean_labels[idx]
        return MaskDataset(
            patches=self.patches[idx],
            labels=self.labels[idx],
            scene_ids=self.scene_ids[idx],
            rows=self.rows[idx],
            cols=self.cols[idx],
            clean_labels=clean,
        )

    def with_labels(self, labels, clean_labels=None) -> "MaskDataset":
        return replace(
            self,
            labels=np.asarray(labels, dtype=np.int64),
            clean_labels=None if clean_labels is None else np.asarray(clean_labels, dtype=np.int64),
        )


def build_mask_dataset(scenes, n_scenes: int, m: int, tau_label: float, index_sets=None):
    """Tile and label the n_scenes equal-sized scenes of the iterable scenes,
    one at a time, into the mask dataset they give: scene-major, then
    row-major within the scene, each mask tagged with its scene id and grid
    position. Patches are rounded to float32 once per scene, in the one
    copy made of its tiles.

    With index_sets, a sequence of ascending row-index arrays into that
    dataset, it returns one MaskDataset per set, each equal to
    whole.take(idx) bit for bit, and the whole is never built: each scene's
    masks and labels are scattered straight into one preallocated array per
    set. Without them it returns the whole, the one set of every row. A
    scene is not kept once its masks are written, so with a lazy iterable
    no list of scenes, and only the current scene's tiles, is ever held."""
    if n_scenes < 1:
        raise ConfigError("no scenes given")
    outs = None
    k = 0  # counted by hand: enumerate would hold on to the last scene
    for scene in scenes:
        if k == n_scenes:
            raise ConfigError(f"more than the {n_scenes} scenes expected")
        image, gt = _grid(scene, m)
        if outs is None:
            first_shape = image.shape
            g = len(image)
            per = g * g
            sets = (np.arange(n_scenes * per),) if index_sets is None else index_sets
            outs = [_scatter_target(idx, n_scenes, per, image.shape[2:]) for idx in sets]
        if image.shape != first_shape:
            raise DataError(f"scene {scene.scene_id} is {scene.image.shape}, unlike the first scene")
        labels = _label_patches(gt.reshape(per, m * m), tau_label)
        # image is a transposed view, so this is the one copy of the tiles
        tiles = image.astype(np.float32, order="C").reshape(per, *first_shape[2:])
        for idx, bounds, patches, out_labels, sids in outs:
            lo, hi = bounds[k], bounds[k + 1]
            local = idx[lo:hi] - k * per
            # local lies in [0, per) by construction; mode="clip" writes
            # into out without a buffer, which the default mode allocates
            np.take(tiles, local, axis=0, out=patches[lo:hi], mode="clip")
            out_labels[lo:hi] = labels[local]
            sids[lo:hi] = scene.scene_id
        k += 1
        del scene, image, gt, tiles  # the next scene is drawn with none of this one held
    if k != n_scenes:
        raise ConfigError(f"{k} scenes given, {n_scenes} expected")
    parts = []
    for idx, _, patches, out_labels, sids in outs:
        rows, cols = np.divmod(idx % per, g)
        parts.append(MaskDataset(patches, out_labels, sids, rows, cols))
    return parts[0] if index_sets is None else tuple(parts)


def _scatter_target(idx, n_scenes: int, per: int, mask_shape):
    """build_mask_dataset's arrays for one index set: the checked int64
    indices, where each scene's rows start and end in them, and the empty
    patches, labels and scene ids."""
    idx = np.asarray(idx, dtype=np.int64)
    n_rows = n_scenes * per
    if idx.ndim != 1 or np.any(idx[1:] < idx[:-1]) or np.any((idx < 0) | (idx >= n_rows)):
        raise ValueError(f"an index set must be ascending row indices in [0, {n_rows})")
    bounds = np.searchsorted(idx, np.arange(n_scenes + 1) * per)
    n = len(idx)
    return (idx, bounds, np.empty((n,) + mask_shape, dtype=np.float32),
            np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))


def split_dataset(ds: MaskDataset, fractions, seed: int):
    """Split into (train, modelsel, eval) datasets.

    The eval partition takes whole scenes (per-scene SP-IoU needs complete
    grids); train/modelsel are split mask-wise from the remaining pool.
    Deterministic in seed; partitions are disjoint and exhaustive. A
    partition that was requested with a positive fraction but comes out
    empty raises ConfigError.
    """
    return tuple(ds.take(idx) for idx in _split_indices(ds.scene_ids, fractions, seed))


def _split_fractions(fractions) -> tuple:
    """The (train, modelsel, eval) fractions as floats: three non-negative
    numbers that sum to 1. DataConfig checks its split with it at load."""
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x < 0 for x in f):
        raise ConfigError(f"fractions must be three non-negative numbers, got {fractions}")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(f)}")
    return f


def _split_indices(scene_ids, fractions, seed: int):
    """split_dataset on the masks' scene ids alone: the sorted (train,
    modelsel, eval) row indices. DataConfig.split_indices runs it on a
    synthetic source's scene ids, at load and for the build."""
    f_train, f_modelsel, f_eval = _split_fractions(fractions)
    rng = np.random.default_rng(seed)

    scenes = np.unique(scene_ids)
    n_eval_scenes = int(round(f_eval * len(scenes)))
    eval_scenes = rng.permutation(scenes)[:n_eval_scenes]
    eval_mask = np.isin(scene_ids, eval_scenes)
    eval_idx = np.flatnonzero(eval_mask)

    pool = np.flatnonzero(~eval_mask)
    pool = pool[rng.permutation(len(pool))]
    denom = f_train + f_modelsel
    n_train = int(round(f_train / denom * len(pool))) if denom > 0 else 0
    train_idx, modelsel_idx = pool[:n_train], pool[n_train:]

    for name, frac, idx in (
        ("train", f_train, train_idx),
        ("modelsel", f_modelsel, modelsel_idx),
        ("eval", f_eval, eval_idx),
    ):
        if frac > 0 and len(idx) == 0:
            raise ConfigError(f"{name} partition is empty at fraction {frac}")
    return np.sort(train_idx), np.sort(modelsel_idx), np.sort(eval_idx)


# ---------------------------------------------------------------------------
# flat binary dataset files
#
# Header (little-endian): magic "CANC", version u32, m u32, channels u32,
# count u32, then count packed records: noisy label u8, clean label u8
# (NO_LABEL when the dataset has none), scene id, row and col as int32, and
# the m*m*C float32 patch (row-major).

VERSION = 3
NO_LABEL = 255


def _record_dtype(m: int, c: int) -> np.dtype:
    return np.dtype(
        [("label", "u1"), ("clean", "u1"), ("scene", "<i4"), ("row", "<i4"), ("col", "<i4"),
         ("patch", "<f4", (m, m, c))]
    )


_CHUNK_BYTES = 1 << 20  # the records a writer fills and writes at a time


def _write_records(path, m: int, c: int, n: int, fill):
    """Write a version 3 file of n records in chunks of about _CHUNK_BYTES
    (at least one record): fill(records, lo, hi) sets every field of the
    records of rows lo..hi-1, so one chunk of records is all that is held."""
    dtype = _record_dtype(m, c)
    step = max(1, _CHUNK_BYTES // dtype.itemsize)
    buf = np.empty(min(n, step), dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, m, c, n))
        for lo in range(0, n, step):
            records = buf[: min(step, n - lo)]
            fill(records, lo, lo + len(records))
            records.tofile(fh)


def _put(records, at, ds: MaskDataset, rows: slice, labels, clean):
    """Set records[at] from ds's rows, with the given label columns."""
    for name, column in (("label", labels), ("clean", clean), ("scene", ds.scene_ids[rows]),
                         ("row", ds.rows[rows]), ("col", ds.cols[rows]),
                         ("patch", ds.patches[rows])):
        records[name][at] = column


def write_dataset(path, ds: MaskDataset):
    """Write ds as a version 3 file, in bounded chunks of records; float32
    patches are stored as held."""

    def fill(records, lo, hi):
        rows = slice(lo, hi)
        clean = NO_LABEL if ds.clean_labels is None else ds.clean_labels[rows]
        _put(records, slice(None), ds, rows, ds.labels[rows], clean)

    _write_records(path, ds.m, ds.channels, len(ds), fill)


def _write_whole(path, parts, g: int):
    """Write the whole mask dataset that the partitions parts make up, as
    write_dataset would write build_mask_dataset's whole, without building
    it: row scene * g^2 + row * g + col of the file is the partition row
    of that scene and grid position, with its true label (clean_labels
    where the partition has them) and no clean label. Each partition must
    hold its rows in ascending position, as the build gives them, and
    together they must hold every position once."""
    per = g * g
    where = [p.scene_ids * per + p.rows * g + p.cols for p in parts]
    truth = [p.labels if p.clean_labels is None else p.clean_labels for p in parts]

    def fill(records, lo, hi):
        for part, pos, labels in zip(parts, where, truth):
            a, b = np.searchsorted(pos, (lo, hi))
            rows = slice(a, b)
            _put(records, pos[rows] - lo, part, rows, labels[rows], NO_LABEL)

    _write_records(path, parts[0].m, parts[0].channels, sum(map(len, parts)), fill)


def read_dataset(path) -> MaskDataset:
    """Read back a file that write_dataset wrote (version 3), with each
    mask's scene id and grid position. Any other version, a malformed
    header, a file shorter or longer than its header's record count, a
    noisy label outside {0, 1}, a clean label outside {0, 1, NO_LABEL}, or
    NO_LABEL on some records' clean labels but not all is a DataError.

    The patches are the file's float32, a view into the records, which
    MaskDataset.take copies only for the rows it takes."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, version, m, c, n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise DataError(f"{path}: unsupported version {version}, expected {VERSION}")
        if m < 1 or c < 1:
            raise DataError(f"{path}: bad mask shape m={m}, channels={c}")
        try:
            dtype = _record_dtype(m, c)
        except ValueError as exc:
            raise DataError(f"{path}: mask shape m={m}, channels={c}: {exc}") from exc
        # checked before reading, so a bad count never sizes an allocation
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        held = body // dtype.itemsize
        if held < n:
            raise DataError(f"{path}: truncated after record {held} of {n}")
        if body != n * dtype.itemsize:
            raise DataError(f"{path}: {body - n * dtype.itemsize} bytes after the {n} records")
        records = np.fromfile(fh, dtype=dtype, count=n)
    clean = records["clean"]
    no_clean = clean == NO_LABEL
    if np.any(records["label"] > 1) or np.any((clean > 1) & ~no_clean):
        raise DataError(
            f"{path}: a label outside {{0, 1}} or a clean label outside {{0, 1, {NO_LABEL}}}"
        )
    if no_clean.any() and not no_clean.all():
        raise DataError(f"{path}: some records have a clean label and some have {NO_LABEL}")
    return MaskDataset(
        patches=records["patch"],
        labels=records["label"].astype(np.int64),
        scene_ids=records["scene"].astype(np.int64),
        rows=records["row"].astype(np.int64),
        cols=records["col"].astype(np.int64),
        clean_labels=None if no_clean.all() else clean.astype(np.int64),
    )
