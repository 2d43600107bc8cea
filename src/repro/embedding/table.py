"""In-memory embedding tables (the data the ORAM protects)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng

#: Normal draws per chunk of a table's initial fill.
FILL_CHUNK_VALUES = 1 << 20


class EmbeddingTable:
    """A dense ``num_rows x dim`` embedding matrix, :attr:`weights`.

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
    @property
    def nbytes(self) -> int:
        """Size of the table in bytes."""
        return int(self.weights.nbytes)

    @property
    def row_nbytes(self) -> int:
        """Size of one row in bytes (the ORAM block payload size)."""
        return int(self.weights[0].nbytes)
