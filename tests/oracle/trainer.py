"""The reference gradient step: numpy's grouping and ``reduceat`` sum.

``ObliviousEmbeddingTrainer.apply_gradients`` groups a step's ids once and
sums each group's gradients in C (``write_back.group_sum``).  This is the
numpy body it replaced, kept as the oracle the shipped step is compared
with bit for bit: equal ids made adjacent by a stable argsort, each run's
gradients summed by ``np.add.reduceat`` over the sorted copy, one optimizer
step per run, and the stepped row scattered back to every occurrence.
"""

from __future__ import annotations

import numpy as np


def reference_apply_gradients(optimizer, row_ids, rows, gradients) -> np.ndarray:
    """The rows to commit after one step of ``optimizer`` on ``rows``."""
    order = np.argsort(row_ids, kind="stable")
    sorted_ids = row_ids[order]
    run_start = np.ones(sorted_ids.size, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=run_start[1:])
    first = order[run_start]
    summed = np.add.reduceat(gradients[order], np.flatnonzero(run_start), axis=0)
    updated = optimizer.update(rows[first], summed)
    written = np.empty_like(updated, shape=rows.shape)
    written[order] = updated[run_start.cumsum() - 1]
    return written
