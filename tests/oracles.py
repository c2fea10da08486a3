"""Reference implementations that the package no longer ships, kept as
independent oracles for the tests."""

import numpy as np

from canclab import Batch, per_sample_loss, select_clean, sgd_step
from canclab.training import IterationDiag


def coteaching_iteration(m1, m2, batch, r, s, lr, allow_overlap=False):
    """One cross-teaching step without swapping: each network's low-loss
    picks update the other network.

    Written separately from canclab.training.canc_iteration, whose
    signature it shares so that it can stand in for it; s must be 0.
    """
    assert s == 0.0, "the co-teaching oracle has no swap step"
    losses_1 = per_sample_loss(m1, batch)
    losses_2 = per_sample_loss(m2, batch)
    clean_1 = select_clean(losses_1, r)
    clean_2 = select_clean(losses_2, r)
    m2_new = sgd_step(m2, Batch(batch.x[clean_1], batch.y[clean_1]), lr)
    m1_new = sgd_step(m1, Batch(batch.x[clean_2], batch.y[clean_2]), lr)
    empty = np.empty(0, dtype=np.int64)
    return m1_new, m2_new, IterationDiag(clean_1, empty, clean_2, empty)
