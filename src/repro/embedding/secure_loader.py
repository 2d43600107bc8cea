"""Bridges embedding rows and ORAM blocks.

The :class:`SecureEmbeddingStore` owns the protected embedding table: rows are
loaded into the ORAM as block payloads at setup, fetched through oblivious
accesses during training, and written back after gradient updates.  The same
store works over any :class:`~repro.oram.base.ObliviousMemory` implementation
(insecure baseline, PathORAM, LAORAM), which is what lets
the examples compare engines end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.oram.base import ObliviousMemory
from repro.oram.row_store import read_only
from repro.embedding.table import EmbeddingTable


class SecureEmbeddingStore:
    """Embedding table whose rows live inside an oblivious memory engine.

    The table is lent, not copied: ``table.weights`` is the engine's
    read-only initial payload matrix for the store's lifetime.  Updated rows
    live inside the engine (the overlay of the engine's row store), so the
    table keeps its initial values and the caller must not write into it
    while the store is in use.
    """

    def __init__(self, memory: ObliviousMemory, table: EmbeddingTable):
        if memory.num_blocks < table.num_rows:
            raise ConfigurationError(
                f"ORAM holds {memory.num_blocks} blocks but the table has "
                f"{table.num_rows} rows"
            )
        self.memory = memory
        self.dim = table.dim
        self.num_rows = table.num_rows
        self.row_nbytes = table.row_nbytes
        # Trusted-setup bulk load of the table itself, read-only: writes go
        # to the engine's copy-on-write rows, never into ``table.weights``.
        memory.load_payloads(table.weights)

    # ------------------------------------------------------------------
    def fetch_rows(self, row_ids: Sequence[int] | np.ndarray, hold: bool = False) -> np.ndarray:
        """Obliviously fetch the embedding vectors for ``row_ids``.

        ``hold=True`` opens a training step: the engine keeps the paths it
        read client-side (:meth:`~repro.oram.base.ObliviousMemory.hold_many`)
        until :meth:`update_rows` commits the same ids, so the step costs
        one request.  The result is a fresh array: it never aliases the
        stored rows.
        """
        ids = self._validate(row_ids)
        if hold:
            payloads = self.memory.hold_many(ids)
        else:
            payloads = self.memory.access_many(ids)
        # One gather: engines over a payload matrix return it ready made,
        # the others a list of rows to stack.
        return np.asarray(payloads, dtype=np.float32)

    def update_rows(self, row_ids: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Obliviously write updated embedding vectors back.

        While the engine holds a step (``fetch_rows(..., hold=True)``) this
        commits it (:meth:`~repro.oram.base.ObliviousMemory.commit`):
        ``row_ids`` must be the held ids, and the commit reads no path of
        its own but writes back the paths the step read.  Whatever this
        rejects, the hold is closed: ids or values it cannot take release
        it with the held rows unchanged.  Otherwise the
        engine receives the whole batch as one write request (LAORAM
        clients write rows sharing a path back together; other engines take
        one write access per row).  Duplicate ids within a batch keep their
        last value, mirroring a sequential write stream.  The engine
        receives one private, read-only copy of ``values``, so the caller
        may reuse its array and no row the engine serves later can be
        written in place.
        """
        memory = self.memory
        try:
            ids = self._validate(row_ids)
            values = read_only(np.array(values, dtype=np.float32))
            if values.shape != (ids.size, self.dim):
                raise ConfigurationError("values shape mismatch")
        except BaseException:
            if memory.hold_open:
                memory.release_hold()
            raise
        if memory.hold_open:
            memory.commit(ids, values)
        else:
            memory.write_many(ids, values)

    def materialize(self) -> EmbeddingTable:
        """Read every row back out (test helper verifying data integrity)."""
        table = EmbeddingTable(self.num_rows, self.dim, seed=0)
        rows = self.fetch_rows(np.arange(self.num_rows))
        table.weights[:] = rows
        return table

    # ------------------------------------------------------------------
    def _validate(self, row_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ConfigurationError("row_ids must be one-dimensional")
        if ids.size == 0:
            raise ConfigurationError("row_ids must be non-empty")
        if ids.min() < 0 or ids.max() >= self.num_rows:
            raise ConfigurationError("row id outside table")
        return ids
