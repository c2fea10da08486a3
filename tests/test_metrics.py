"""Metric tests: confusion tallies, NaN semantics, and smoothed IoU."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from canclab import ConfusionCounts, confusion, prf1, scene_sp_iou, sp_iou


def test_confusion_trivial_cases():
    c = confusion([1, 1, 0], [1, 1, 0])
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)
    c = confusion([1, 0], [0, 1])
    assert (c.fn, c.fp, c.tp, c.tn) == (1, 1, 0, 0)


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        yt = rng.integers(0, 2, size=n)
        yp = rng.integers(0, 2, size=n)
        c = confusion(yt, yp)
        tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for a, b in zip(yt, yp):
            if a == 1 and b == 1:
                tally["tp"] += 1
            elif a == 0 and b == 1:
                tally["fp"] += 1
            elif a == 0 and b == 0:
                tally["tn"] += 1
            else:
                tally["fn"] += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (
            tally["tp"], tally["fp"], tally["tn"], tally["fn"],
        )
        assert c.total == n


def test_confusion_input_validation():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])
    with pytest.raises(ValueError):
        confusion([1, 2], [1, 0])
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


def test_prf1_degenerate_no_positive_predictions():
    m = prf1(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
    assert math.isnan(m.precision)
    assert m.recall == 0.0
    assert math.isnan(m.f1)
    assert m.accuracy == 0.5


def test_prf1_degenerate_no_positive_truth():
    m = prf1(ConfusionCounts(tp=0, fp=2, tn=8, fn=0))
    assert math.isnan(m.recall)
    assert m.precision == 0.0
    assert math.isnan(m.f1)


def test_prf1_zero_precision_and_recall_gives_nan_f1():
    m = prf1(ConfusionCounts(tp=0, fp=3, tn=4, fn=3))
    assert m.precision == 0.0 and m.recall == 0.0
    assert math.isnan(m.f1)


def test_prf1_perfect():
    m = prf1(ConfusionCounts(tp=6, fp=0, tn=4, fn=0))
    assert astuple(m) == (1.0, 1.0, 1.0, 1.0)


def test_prf1_direct_formulas():
    m = prf1(ConfusionCounts(tp=2, fp=1, tn=0, fn=1))
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.accuracy == 0.5


def test_prf1_accuracy_matches_agreement_fraction():
    rng = np.random.default_rng(3)
    yt = rng.integers(0, 2, size=300)
    yp = rng.integers(0, 2, size=300)
    m = prf1(confusion(yt, yp))
    assert m.accuracy == pytest.approx(np.mean(yt == yp))


def test_prf1_requires_samples():
    with pytest.raises(ValueError):
        prf1(ConfusionCounts(0, 0, 0, 0))


def test_sp_iou_reference_values():
    assert sp_iou(np.ones(10), np.ones(10)) == 1.0
    assert sp_iou(np.zeros(4), np.zeros(4)) == 1.0
    assert sp_iou([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5


@pytest.mark.parametrize("y_true, y_pred", [([0, 2], [0, 1]), ([1, 0], [1, -1])])
def test_sp_iou_rejects_what_confusion_rejects(y_true, y_pred):
    with pytest.raises(ValueError):
        sp_iou(y_true, y_pred)


def test_sp_iou_symmetry_and_range():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        v = sp_iou(a, b)
        assert 0.0 < v <= 1.0
        assert v == sp_iou(b, a)
        # 1 exactly when positive sets coincide
        assert (v == 1.0) == (set(np.flatnonzero(a)) == set(np.flatnonzero(b)))


def test_sp_iou_matches_direct_formula():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        inter = int(np.sum((a == 1) & (b == 1)))
        union = int(np.sum((a == 1) | (b == 1)))
        assert sp_iou(a, b) == (inter + 1.0) / (union + 1.0)


def test_scene_sp_iou_groups_by_scene():
    sids = np.array([0, 0, 0, 7, 7, 7])
    yt = np.array([1, 1, 0, 0, 0, 0])
    yp = np.array([1, 0, 1, 0, 0, 0])
    out = scene_sp_iou(sids, yt, yp)
    assert out == [
        {"scene_id": 0, "sp_iou": 0.5},
        {"scene_id": 7, "sp_iou": 1.0},
    ]
