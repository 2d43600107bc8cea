"""Insecure (non-oblivious) memory baseline.

Serves accesses directly from a flat table.  Used for two purposes:

* Table I's "Insecure" memory-footprint column, and
* the attack demonstration: every access leaks its true address to any
  observer on the memory bus, which is exactly what ORAM prevents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import BlockNotFoundError
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.timing import TimingModel
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig


class InsecureMemory(ObliviousMemory):
    """Flat, unprotected block store with the same interface as the ORAMs."""

    def __init__(
        self,
        config: ORAMConfig,
        timing: Optional[TimingModel] = None,
        counter: Optional[TrafficCounter] = None,
        observer=None,
    ):
        self.config = config
        self.timing = timing if timing is not None else TimingModel()
        self.counter = counter if counter is not None else TrafficCounter()
        self.observer = observer
        self._payloads: dict[int, object] = {}

    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def statistics(self) -> TrafficSnapshot:
        return self.counter.snapshot()

    @property
    def simulated_time_s(self) -> float:
        return self.timing.elapsed_s

    @property
    def server_memory_bytes(self) -> int:
        return self.config.insecure_memory_bytes

    def load_payloads(self, payloads) -> None:
        """Install initial payloads (setup step, no traffic charged).

        ``payloads`` is a ``{block_id: payload}`` mapping, or a ``(rows,
        dim)`` array whose rows become per-block views of it.
        """
        self._check_payloads(payloads)
        self._payloads.update(
            enumerate(payloads) if isinstance(payloads, np.ndarray) else payloads
        )

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
        self.timing.charge_path_transfer(1, num_bytes)
        if self.observer is not None:
            self.observer.observe_address(block_id)
        if op is AccessOp.WRITE:
            self._payloads[block_id] = new_payload
            self.counter.record_path_write(1, num_bytes)
            self.timing.charge_path_transfer(1, num_bytes)
        return self._payloads.get(block_id)

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )
