"""Sparse optimisers for embedding rows.

Embedding training only touches the rows accessed in the current batch, so
optimiser state and updates are sparse.  Both optimisers operate on gradient
arrays aligned with an explicit list of row ids, exactly the quantities the
oblivious trainer moves through the ORAM.

One ``update`` call is one step per row: it reads every row as fetched, so
the caller sums the gradients of a row that occurs several times in a
request and passes it once (``ObliviousEmbeddingTrainer.apply_gradients``).
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

    def update(self, rows: np.ndarray, gradients: np.ndarray, row_ids=None) -> np.ndarray:
        """Return updated row values given current ``rows`` and ``gradients``."""
        rows = np.asarray(rows, dtype=np.float32)
        gradients = np.asarray(gradients, dtype=np.float32)
        if rows.shape != gradients.shape:
            raise ConfigurationError("rows and gradients must have the same shape")
        return rows - self.learning_rate * gradients


class SparseAdagrad:
    """Adagrad with per-row accumulators, the optimiser DLRM uses for embeddings."""

    def __init__(self, learning_rate: float = 0.05, eps: float = 1e-8):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.learning_rate = learning_rate
        self.eps = eps
        self._accumulators: dict[int, np.ndarray] = {}

    def update(self, rows: np.ndarray, gradients: np.ndarray, row_ids=None) -> np.ndarray:
        """Return updated rows; ``row_ids`` keys the per-row accumulator state."""
        rows = np.asarray(rows, dtype=np.float32)
        gradients = np.asarray(gradients, dtype=np.float32)
        if rows.shape != gradients.shape:
            raise ConfigurationError("rows and gradients must have the same shape")
        if row_ids is None:
            raise ConfigurationError("SparseAdagrad requires row_ids")
        row_ids = list(int(r) for r in row_ids)
        if len(row_ids) != rows.shape[0]:
            raise ConfigurationError("row_ids length must match rows")
        updated = rows.copy()
        for index, row_id in enumerate(row_ids):
            acc = self._accumulators.get(row_id)
            if acc is None:
                acc = np.zeros(rows.shape[1], dtype=np.float32)
            acc = acc + gradients[index] ** 2
            self._accumulators[row_id] = acc
            updated[index] = rows[index] - self.learning_rate * gradients[index] / (
                np.sqrt(acc) + self.eps
            )
        return updated

    @property
    def tracked_rows(self) -> int:
        """Number of rows with accumulated optimiser state."""
        return len(self._accumulators)
