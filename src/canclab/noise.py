"""Label-noise models.

A noise transition matrix T is column-stochastic with T[j, i] = P(observed
label j | true label i). Injection draws each observed label independently
from the column of its true label, so empirical flip frequencies converge
to the off-diagonal mass of that column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .data import MaskDataset

__all__ = [
    "NoiseTransition",
    "symmetric_matrix",
    "antisymmetric_matrix",
    "make_transition",
    "apply_noise",
    "inject",
]

_COLSUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseTransition:
    """A validated column-stochastic transition matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError(f"transition matrix must be square, got shape {t.shape}")
        if np.any(t < 0) or np.any(t > 1):
            raise ConfigError("transition entries must lie in [0,1]")
        colsums = t.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _COLSUM_TOL):
            raise ConfigError(f"columns must sum to 1, got {colsums}")
        object.__setattr__(self, "matrix", t)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]


def symmetric_matrix(n_classes: int, epsilon: float) -> NoiseTransition:
    """Every class keeps its label with prob 1-epsilon and spreads epsilon
    evenly over the other classes."""
    _check_rate(epsilon, n_classes)
    off = epsilon / (n_classes - 1)
    t = np.full((n_classes, n_classes), off, dtype=np.float64)
    np.fill_diagonal(t, 1.0 - epsilon)
    return NoiseTransition(matrix=t)


def antisymmetric_matrix(epsilon: float) -> NoiseTransition:
    """One-directional binary noise: class 0 flips to 1 with prob epsilon,
    class 1 is never corrupted."""
    _check_rate(epsilon, 2)
    t = np.array([[1.0 - epsilon, 0.0], [epsilon, 1.0]], dtype=np.float64)
    return NoiseTransition(matrix=t)


def make_transition(kind: str, epsilon: float, n_classes: int = 2) -> NoiseTransition:
    if kind == "none":
        return symmetric_matrix(n_classes, 0.0)
    if kind == "symmetric":
        return symmetric_matrix(n_classes, epsilon)
    if kind == "antisymmetric":
        if n_classes != 2:
            raise ConfigError("antisymmetric noise is binary only")
        return antisymmetric_matrix(epsilon)
    raise ConfigError(f"unknown noise kind {kind!r}")


def _check_rate(epsilon: float, n_classes: int):
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"noise rate must be in [0,1], got {epsilon}")


def apply_noise(labels: np.ndarray, transition: NoiseTransition, rng) -> np.ndarray:
    """Corrupt labels by one inverse-CDF draw per sample along the label's
    column. One uniform is consumed per sample in array order, so the
    result is a pure function of (labels, transition, rng state)."""
    y = np.asarray(labels, dtype=np.int64)
    n = transition.n_classes
    if y.size and (y.min() < 0 or y.max() >= n):
        raise ConfigError(f"labels outside [0,{n}) for this transition")
    cdf = np.cumsum(transition.matrix, axis=0)  # (n, n), column CDFs
    u = rng.random(y.shape[0])
    # first row index where the column CDF exceeds the draw
    observed = np.argmax(u[None, :] < cdf[:, y], axis=0)
    return observed.astype(np.int64)


def inject(ds: MaskDataset, transition: NoiseTransition, seed: int) -> MaskDataset:
    """Return a copy of the dataset whose labels are noise-corrupted; the
    originals are kept in clean_labels."""
    rng = np.random.default_rng(seed)
    noisy = apply_noise(ds.labels, transition, rng)
    return ds.with_labels(noisy, clean_labels=ds.labels)
