"""In-memory embedding tables (the data the ORAM protects)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng

#: Normal draws per chunk of a table's initial fill.
FILL_CHUNK_VALUES = 1 << 20


class EmbeddingTable:
    """A dense ``num_rows x dim`` embedding matrix with sparse row access.

    This is the plaintext view of the data; when served through an ORAM the
    rows become block payloads and the table itself lives on the untrusted
    server in encrypted, tree-ordered form.
    """

    def __init__(
        self,
        num_rows: int,
        dim: int,
        scale: float = 0.01,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        if num_rows < 1:
            raise ConfigurationError("num_rows must be >= 1")
        if dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        generator = rng if rng is not None else make_rng(seed)
        self.num_rows = num_rows
        self.dim = dim
        # Filled in row chunks: sequential draws continue one stream, so
        # this is ``(normal(size=(num_rows, dim)) * scale).astype(float32)``
        # bit for bit, with a chunk's float64 temporary instead of the
        # whole table's.
        self.weights = np.empty((num_rows, dim), dtype=np.float32)
        step = max(1, FILL_CHUNK_VALUES // dim)
        for start in range(0, num_rows, step):
            rows = min(step, num_rows - start)
            self.weights[start : start + rows] = generator.normal(size=(rows, dim)) * scale

    # ------------------------------------------------------------------
    def lookup(self, row_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Return the embedding vectors for ``row_ids`` (copy, shape ``(n, dim)``)."""
        ids = self._validate_ids(row_ids)
        return self.weights[ids].copy()

    def set_rows(self, row_ids: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Overwrite the given rows with ``values`` (shape ``(n, dim)``)."""
        ids = self._validate_ids(row_ids)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (ids.size, self.dim):
            raise ConfigurationError(
                f"values shape {values.shape} does not match ({ids.size}, {self.dim})"
            )
        self.weights[ids] = values

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the table in bytes."""
        return int(self.weights.nbytes)

    @property
    def row_nbytes(self) -> int:
        """Size of one row in bytes (the ORAM block payload size)."""
        return int(self.weights[0].nbytes)

    def _validate_ids(self, row_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ConfigurationError("row_ids must be one-dimensional")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_rows):
            raise ConfigurationError("row id outside table")
        return ids
