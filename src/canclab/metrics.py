"""Confusion-matrix metrics and smoothed super-pixel IoU.

Degenerate ratios are NaN, not errors: a run that predicts no positives
reports precision NaN and recall 0, and F1 propagates the NaN. Accuracy is
always defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts; positive class is label 1."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class PRF1:
    accuracy: float
    precision: float
    recall: float
    f1: float


def confusion(y_true, y_pred) -> ConfusionCounts:
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ValueError(f"label vectors must match, got {yt.shape} vs {yp.shape}")
    bad = ((yt != 0) & (yt != 1)) | ((yp != 0) & (yp != 1))
    if bad.any():
        raise ValueError("labels must be binary")
    tp = int(np.sum((yt == 1) & (yp == 1)))
    fp = int(np.sum((yt == 0) & (yp == 1)))
    tn = int(np.sum((yt == 0) & (yp == 0)))
    fn = int(np.sum((yt == 1) & (yp == 0)))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def prf1(c: ConfusionCounts) -> PRF1:
    """Accuracy, precision, recall, F1 with NaN for empty denominators.

    precision is NaN when nothing was predicted positive; recall is NaN
    when nothing is positive; F1 is NaN when either input is NaN or when
    precision + recall = 0.
    """
    if c.total <= 0:
        raise ValueError("need at least one evaluated sample")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else math.nan
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else math.nan
    if math.isnan(precision) or math.isnan(recall) or (precision + recall) == 0:
        f1 = math.nan
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PRF1(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def sp_iou(y_true, y_pred) -> float:
    """Smoothed IoU over one scene's grid of binary mask labels, which
    confusion checks.

    intersection counts cells positive in both vectors (tp); union counts
    cells positive in either (tp + fp + fn). Adding 1 to both keeps
    all-negative scenes at exactly 1 instead of 0/0.
    """
    c = confusion(y_true, y_pred)
    return (c.tp + 1) / (c.tp + c.fp + c.fn + 1)


def scene_sp_iou(scene_ids, y_true, y_pred):
    """Per-scene SP-IoU over a flat mask collection.

    Returns a list of {"scene_id": int, "sp_iou": float} dicts ordered by
    scene id, ready for JSON emission.
    """
    sids = np.asarray(scene_ids, dtype=np.int64)
    out = []
    for sid in np.unique(sids):
        sel = sids == sid
        out.append(
            {"scene_id": int(sid), "sp_iou": sp_iou(np.asarray(y_true)[sel], np.asarray(y_pred)[sel])}
        )
    return out
