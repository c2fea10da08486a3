"""Label-noise models.

Labels are binary, so a noise transition matrix T is 2x2 and
column-stochastic, with T[j, i] = P(observed label j | true label i). Its
two flip rates T[1, 0] and T[0, 1] describe any class-conditional noise on
two classes. Injection draws each observed label independently from the
column of its true label, so empirical flip frequencies converge to those
rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .data import MaskDataset

_COLSUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseTransition:
    """A validated 2x2 column-stochastic transition matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=np.float64)
        if t.shape != (2, 2):
            raise ConfigError(f"transition matrix must be 2x2, got shape {t.shape}")
        if not np.all((t >= 0) & (t <= 1)):
            raise ConfigError("transition entries must lie in [0,1]")
        colsums = t.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _COLSUM_TOL):
            raise ConfigError(f"columns must sum to 1, got {colsums}")
        object.__setattr__(self, "matrix", t)


def symmetric_matrix(epsilon: float) -> NoiseTransition:
    """Each class flips to the other with prob epsilon."""
    t = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]], dtype=np.float64)
    return NoiseTransition(matrix=t)


def antisymmetric_matrix(epsilon: float) -> NoiseTransition:
    """One-directional noise: class 0 flips to 1 with prob epsilon, class 1
    is never corrupted."""
    t = np.array([[1.0 - epsilon, 0.0], [epsilon, 1.0]], dtype=np.float64)
    return NoiseTransition(matrix=t)


def make_transition(kind: str, epsilon: float) -> NoiseTransition:
    if kind == "none":
        return symmetric_matrix(0.0)
    if kind == "symmetric":
        return symmetric_matrix(epsilon)
    if kind == "antisymmetric":
        return antisymmetric_matrix(epsilon)
    raise ConfigError(f"unknown noise kind {kind!r}")


def apply_noise(labels: np.ndarray, transition: NoiseTransition, rng) -> np.ndarray:
    """Corrupt labels by one uniform draw u per sample: the observed label
    is 0 when u < T[0, y] and 1 otherwise. One uniform is consumed per
    sample in array order, so the result is a pure function of (labels,
    transition, rng state)."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() > 1):
        raise ConfigError("labels outside {0, 1} for a binary transition")
    u = rng.random(y.shape[0])
    return (u >= transition.matrix[0, y]).astype(np.int64)


def inject(ds: MaskDataset, transition: NoiseTransition, seed: int) -> MaskDataset:
    """Return a copy of the dataset whose labels are noise-corrupted; the
    originals are kept in clean_labels."""
    rng = np.random.default_rng(seed)
    noisy = apply_noise(ds.labels, transition, rng)
    return ds.with_labels(noisy, clean_labels=ds.labels)
