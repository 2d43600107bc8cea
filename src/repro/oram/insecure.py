"""Insecure (non-oblivious) memory baseline.

Serves accesses directly from a flat table.  Used for two purposes:

* Table I's "Insecure" memory-footprint column, and
* the attack demonstration: every access leaks its true address to any
  observer on the memory bus, which is exactly what ORAM prevents.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.timing import PAPER_TIMING
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.row_store import load_rows, store_rows

#: The paper's prices without the client overhead: a flat table keeps no
#: position map or stash to look up.
_INSECURE_TIMING = replace(PAPER_TIMING, client_overhead_us=0.0)


class InsecureMemory(ObliviousMemory):
    """Flat, unprotected block store with the same interface as the ORAMs."""

    def __init__(
        self,
        config: ORAMConfig,
        counter: Optional[TrafficCounter] = None,
        observer=None,
    ):
        self.config = config
        self.counter = counter if counter is not None else TrafficCounter()
        self.observer = observer
        #: ``block_id -> payload``: a dict, or the row store of a loaded matrix.
        self._payloads = {}

    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def statistics(self) -> TrafficSnapshot:
        return self.counter.snapshot()

    @property
    def simulated_time_s(self) -> float:
        return _INSECURE_TIMING.elapsed_s(self.counter)

    @property
    def server_memory_bytes(self) -> int:
        return self.config.insecure_memory_bytes

    def load_payloads(self, payloads) -> None:
        """Install initial payloads (setup step, no traffic charged).

        ``payloads`` is a ``{block_id: payload}`` mapping, or a ``(rows,
        dim)`` array.  An array is lent, not copied, exactly as on the array
        engines: it is the read-only base of an
        :class:`~repro.oram.row_store.OverlayRowStore`, writes land in its
        overlay, and blocks past ``rows`` read as zero rows.
        """
        self._check_payloads(payloads)
        self._payloads = load_rows(self._payloads, payloads, self.config.num_blocks)

    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Serve one access; the true address is visible to any observer."""
        self._check(block_id)
        self.counter.record_logical_access()
        num_bytes = self.config.block_size_bytes
        self.counter.record_path_read(1, num_bytes)
        if self.observer is not None:
            self.observer.observe_address(block_id)
        if op is AccessOp.WRITE:
            self._payloads[block_id] = new_payload
            self.counter.record_path_write(1, num_bytes)
        return self._payloads.get(block_id)

    # -- a training step: hold, then commit ------------------------------
    def _hold_request(self, ids: np.ndarray) -> list[Optional[object]]:
        """A step's read: each distinct id once, every occurrence its row.

        A flat table has no path to keep open, so a step reads each
        distinct row once, in first-occurrence order, and its commit writes
        each once; every occurrence still counts one logical access at
        each end, as on the tree engines.  An out-of-range id raises before
        any read.
        """
        distinct = list(dict.fromkeys(ids.tolist()))
        for block_id in distinct:
            self._check(block_id)
        self._move(ids.size, distinct, self.counter.record_path_read)
        return list(map(self._payloads.get, ids.tolist()))

    def commit(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        """Store the held rows, one write per distinct id (the last payload wins).

        Ids other than the held ones, or a length mismatch, raise
        ``ConfigurationError``, store nothing and close the hold.
        """
        ids = self._close_hold(block_ids)
        if len(payloads) != len(ids):
            raise ConfigurationError("block_ids and payloads must have equal length")
        store_rows(self._payloads, ids, payloads)
        self._move(ids.size, dict.fromkeys(ids.tolist()), self.counter.record_path_write)

    def _move(self, accesses: int, distinct, record) -> None:
        """Count ``accesses`` logical accesses and ``record`` one move per distinct block."""
        self.counter.record_logical_access(accesses)
        num_bytes = self.config.block_size_bytes
        for block_id in distinct:
            if self.observer is not None:
                self.observer.observe_address(block_id)
            record(1, num_bytes)

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )
