"""Sparse optimiser for embedding rows.

Embedding training only touches the rows accessed in the current batch, so
updates are sparse: :class:`SparseSGD` steps exactly the rows the oblivious
trainer moves through the ORAM.

One ``update`` call is one step per row: it reads every row as fetched, so
the caller sums the gradients of a row that occurs several times in a
request and passes it once (``ObliviousEmbeddingTrainer.apply_gradients``,
whose sum is C: ``repro.oram.write_back.group_sum``).  The step itself stays
numpy: ``rows - learning_rate * gradients`` rounds the product and then the
difference, where a C loop could be contracted into one fused multiply-add
and train a different table.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class SparseSGD:
    """Plain stochastic gradient descent on embedding rows."""

    def __init__(self, learning_rate: float = 0.05):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.learning_rate = learning_rate

    def update(self, rows: np.ndarray, gradients: np.ndarray) -> np.ndarray:
        """Return updated row values given current ``rows`` and ``gradients``."""
        rows = np.asarray(rows, dtype=np.float32)
        gradients = np.asarray(gradients, dtype=np.float32)
        if rows.shape != gradients.shape:
            raise ConfigurationError("rows and gradients must have the same shape")
        return rows - self.learning_rate * gradients
