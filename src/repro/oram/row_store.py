"""Copy-on-write payload rows over a lent matrix.

An engine loaded with a ``(rows, dim)`` payload matrix keeps it as a
read-only *base* and never writes into it: a written row goes into an
*overlay* matrix, and an ``int32`` index maps each block id to its overlay
row, ``-1`` while the block still reads its base row.  The caller's table is
lent for the engine's lifetime, not copied, so a store costs the index plus
the rows written so far.  Every row the store hands out is a read-only view
or a fresh copy: no write through a returned row reaches the table either.

Blocks past the base (a table with fewer rows than the ORAM has blocks)
read overlay row 0, a zero row no write lands in.
"""

from __future__ import annotations

import numpy as np


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes; ``array`` itself is unchanged."""
    view = array.view()
    view.flags.writeable = False
    return view


class OverlayRowStore:
    """``block_id -> row`` over a lent base matrix and a copy-on-write overlay.

    The scalar path (:meth:`get`, item assignment) is what a PathORAM trace
    calls once per access, as it calls ``dict.get`` on a mapping store; it
    reads the index through a memoryview.  The request path
    (:meth:`gather`, :meth:`scatter`) is one base gather plus one patch of
    the written rows, numpy work in the request's length.
    """

    #: Overlay rows allocated at load; the overlay doubles when it is full.
    INITIAL_ROWS = 64

    def __init__(self, base: np.ndarray, num_blocks: int):
        dim = base.shape[1]
        # An empty base still answers the clipped gather; every block then
        # reads the zero row.
        self._base = read_only(base if len(base) else np.zeros((1, dim), base.dtype))
        self._index = np.full(num_blocks, -1, dtype=np.int32)
        self._index[len(base):] = 0
        self._slot_of = memoryview(self._index)
        self._overlay = np.zeros((self.INITIAL_ROWS, dim), dtype=base.dtype)
        self._rows = read_only(self._overlay)
        self._used = 1

    def get(self, block_id: int) -> np.ndarray:
        """Block ``block_id``'s row, read-only."""
        slot = self._slot_of[block_id]
        if slot < 0:
            return self._base[block_id]
        return self._rows[slot]

    def __setitem__(self, block_id: int, row) -> None:
        """Copy ``row`` into block ``block_id``'s overlay row."""
        slot = self._slot_of[block_id]
        if slot <= 0:
            slot = self._used
            if slot == len(self._overlay):
                self._grow(slot + 1)
            self._used = slot + 1
            self._slot_of[block_id] = slot
        self._overlay[slot] = row

    def gather(self, block_ids) -> np.ndarray:
        """A fresh ``(len(block_ids), dim)`` matrix of the blocks' rows."""
        ids = np.asarray(block_ids, dtype=np.int64)
        rows = self._base.take(ids, axis=0, mode="clip")
        slots = self._index[ids]
        written = slots >= 0
        if written.any():
            rows[written] = self._overlay[slots[written]]
        return rows

    def scatter(self, block_ids, rows) -> None:
        """Copy ``rows`` into the blocks' overlay rows; a repeated id keeps its last row."""
        ids = np.asarray(block_ids, dtype=np.int64)
        rows = np.asarray(rows)
        # The first of each id in the reversed request is its last write.
        distinct, first = np.unique(ids[::-1], return_index=True)
        if len(distinct) < len(ids):
            ids, rows = distinct, rows[len(ids) - 1 - first]
        slots = self._index[ids]
        fresh = slots <= 0
        count = int(np.count_nonzero(fresh))
        if count:
            start = self._used
            if start + count > len(self._overlay):
                self._grow(start + count)
            slots[fresh] = np.arange(start, start + count, dtype=np.int32)
            self._index[ids[fresh]] = slots[fresh]
            self._used = start + count
        self._overlay[slots] = rows

    def _grow(self, min_rows: int) -> None:
        """Double the overlay (at least to ``min_rows``), keeping its rows."""
        used = self._used
        overlay = np.empty(
            (max(min_rows, 2 * len(self._overlay)), self._overlay.shape[1]),
            dtype=self._overlay.dtype,
        )
        overlay[:used] = self._overlay[:used]
        self._overlay = overlay
        self._rows = read_only(overlay)


def store_rows(store, block_ids: np.ndarray, rows) -> None:
    """Store ``rows`` for the int64 ``block_ids``; a repeated id keeps its last row.

    A mapping store keys its rows by Python ``int``; a row store takes the
    ids as they are.
    """
    if isinstance(store, dict):
        store.update(zip(block_ids.tolist(), rows))
    else:
        store.scatter(block_ids, rows)


def load_rows(store, payloads, num_blocks: int):
    """The payload store after a trusted-setup load of ``payloads`` into ``store``.

    A ``(rows, dim)`` matrix becomes the base of a fresh
    :class:`OverlayRowStore`, lent and never written; a ``{block_id:
    payload}`` mapping is stored into ``store`` item by item (into the
    overlay of a matrix loaded before it).
    """
    if isinstance(payloads, np.ndarray):
        return OverlayRowStore(payloads, num_blocks)
    for block_id, payload in payloads.items():
        store[block_id] = payload
    return store
