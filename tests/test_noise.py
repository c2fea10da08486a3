"""Noise model tests: matrix construction, column-stochasticity, seeded
injection, and empirical flip frequencies."""

import numpy as np
import pytest

from canclab import (
    ConfigError,
    NoiseTransition,
    antisymmetric_matrix,
    apply_noise,
    build_mask_dataset,
    generate_scene,
    inject,
    make_transition,
    symmetric_matrix,
)
from canclab.data import DataConfig
from oracles import inverse_cdf_noise


def test_symmetric_matrix_values():
    t = symmetric_matrix(0.35)
    assert np.array_equal(t.matrix, np.array([[0.65, 0.35], [0.35, 0.65]]))
    t45 = symmetric_matrix(0.45)
    assert np.array_equal(t45.matrix, np.array([[0.55, 0.45], [0.45, 0.55]]))


def test_antisymmetric_matrix_values():
    t = antisymmetric_matrix(0.35)
    assert np.array_equal(t.matrix, np.array([[0.65, 0.0], [0.35, 1.0]]))
    t1 = antisymmetric_matrix(1.0)
    assert np.array_equal(t1.matrix, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_zero_noise_is_identity():
    assert np.array_equal(symmetric_matrix(0.0).matrix, np.eye(2))
    assert np.array_equal(antisymmetric_matrix(0.0).matrix, np.eye(2))
    assert np.array_equal(make_transition("none", 0.9).matrix, np.eye(2))


def test_columns_sum_to_one():
    for t in (symmetric_matrix(0.17), antisymmetric_matrix(0.4)):
        assert np.all(np.abs(t.matrix.sum(axis=0) - 1.0) <= 1e-12)


def test_rate_validation():
    for bad in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            symmetric_matrix(bad)
        with pytest.raises(ConfigError):
            antisymmetric_matrix(bad)
    with pytest.raises(ConfigError):
        NoiseTransition(matrix=np.full((3, 3), 1.0 / 3.0))  # labels are binary
    with pytest.raises(ConfigError):
        make_transition("weird", 0.2)


def test_transition_validation():
    with pytest.raises(ConfigError):
        NoiseTransition(matrix=np.array([[0.5, 0.0], [0.4, 1.0]]))  # bad column sum
    with pytest.raises(ConfigError):
        NoiseTransition(matrix=np.array([[1.2, 0.0], [-0.2, 1.0]]))  # outside [0,1]
    with pytest.raises(ConfigError, match=r"entries must lie in \[0,1\]"):
        NoiseTransition(matrix=np.full((2, 2), np.nan))  # NaN is neither < 0 nor > 1


def test_apply_noise_zero_rate_identity():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=500)
    out = apply_noise(labels, symmetric_matrix(0.0), np.random.default_rng(1))
    assert np.array_equal(out, labels)


def test_apply_noise_deterministic_in_seed():
    labels = np.random.default_rng(0).integers(0, 2, size=1000)
    t = symmetric_matrix(0.3)
    a = apply_noise(labels, t, np.random.default_rng(42))
    b = apply_noise(labels, t, np.random.default_rng(42))
    c = apply_noise(labels, t, np.random.default_rng(43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_antisymmetric_never_flips_positives():
    labels = np.ones(2000, dtype=np.int64)
    out = apply_noise(labels, antisymmetric_matrix(0.9), np.random.default_rng(3))
    assert np.all(out == 1)


def test_antisymmetric_positive_count_non_decreasing():
    labels = np.random.default_rng(5).integers(0, 2, size=2000)
    out = apply_noise(labels, antisymmetric_matrix(0.4), np.random.default_rng(6))
    assert out.sum() >= labels.sum()


def test_empirical_flip_frequency():
    n = 100000
    t = symmetric_matrix(0.35)
    zeros = apply_noise(np.zeros(n, dtype=np.int64), t, np.random.default_rng(7))
    assert abs(zeros.mean() - 0.35) <= 0.01  # flipped fraction of class 0


def test_labels_out_of_range_rejected():
    with pytest.raises(ConfigError):
        apply_noise(np.array([0, 1, 2]), symmetric_matrix(0.1), np.random.default_rng(0))


def test_inject_keeps_clean_labels_and_input_untouched():
    params = DataConfig(scene_size=64, building_count=(2, 4), building_side=(8, 16), seed=0)
    ds = build_mask_dataset((generate_scene(params, scene_id=i) for i in range(2)), 2, 16, 0.01)
    before = ds.labels.copy()
    noisy = inject(ds, symmetric_matrix(0.5), seed=11)
    assert np.array_equal(ds.labels, before)  # input untouched
    assert np.array_equal(noisy.clean_labels, before)
    assert not np.array_equal(noisy.labels, before)  # 0.5 on 32 masks: flips certain
    assert np.array_equal(noisy.patches, ds.patches)


@pytest.mark.parametrize("kind", ["none", "symmetric", "antisymmetric"])
def test_apply_noise_matches_inverse_cdf_oracle(kind):
    labels = np.random.default_rng(0).integers(0, 2, size=2000)
    grid = np.concatenate([np.linspace(0.0, 1.0, 41), np.random.default_rng(1).uniform(size=20)])
    for epsilon in grid:
        t = make_transition(kind, float(epsilon))
        for seed in range(3):
            got = apply_noise(labels, t, np.random.default_rng(seed))
            want = inverse_cdf_noise(labels, t.matrix, np.random.default_rng(seed))
            assert np.array_equal(got, want), (kind, epsilon, seed)
