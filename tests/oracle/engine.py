"""The reference Path ORAM engine: the textbook sequence, one access at a time.

:class:`ObjectPathORAM` keeps :class:`~oracle.block.Block` objects in list
buckets (:class:`~oracle.tree.TreeStorage`) and a dict stash
(:class:`~oracle.stash.Stash`), and serves each access as Stefanov et al.
(CCS'13, Fig. 1) write it: decide the block's new leaf, update the position
map (which returns the old leaf), read that path into the stash unless the
block is already there, serve, write the path back greedily
(:func:`~oracle.write_back.plan_greedy_write_back`), then run background
eviction — dummy reads of fresh leaves — while the stash is over its
trigger.  A training step holds its paths:
:meth:`ObjectPathORAM.hold_many` serves each read as above but writes no
path back and runs no eviction, and :meth:`ObjectPathORAM.commit` stores
the new payloads and writes the held paths back together, filling the
subtree they span level by level, deepest first
(:func:`~oracle.write_back.plan_subtree_write_back`), then evicts and
observes the stash as an access does.  Every leaf is one scalar draw from
``make_rng(config.seed)``, in the order the protocol needs it; the position map
(:class:`~oracle.position_map.ObjectPositionMap`) is dicts.  Nothing here
comes from the library's engine: for a fixed seed the shipped engine must
make the same decisions and count the same traffic.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.timing import PAPER_TIMING
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.row_store import read_only
from repro.utils.rng import make_rng

from oracle.block import Block
from oracle.position_map import ObjectPositionMap
from oracle.stash import Stash
from oracle.tree import TreeStorage
from oracle.write_back import plan_greedy_write_back, plan_subtree_write_back


#: Dummy reads one background-eviction episode may issue before it gives up.
MAX_DUMMY_READS_PER_EPISODE = 10_000


class ObjectPathORAM(ObliviousMemory):
    """Reference PathORAM client plus its simulated server tree."""

    #: Client bookkeeping charged per stashed block besides its payload.
    STASH_ENTRY_OVERHEAD_BYTES = 16

    def __init__(
        self,
        config: ORAMConfig,
        counter: Optional[TrafficCounter] = None,
        observer=None,
    ):
        self.config = config
        self.counter = counter if counter is not None else TrafficCounter()
        self.rng = make_rng(config.seed)
        self.observer = observer
        self.tree = TreeStorage(
            depth=config.depth,
            bucket_capacities=config.bucket_capacities(),
            block_size_bytes=config.block_size_bytes,
            metadata_bytes_per_block=config.metadata_bytes_per_block,
        )
        self.stash = Stash(capacity=config.stash_capacity)
        #: The paths a training step read and has not written back, in the
        #: order it read them; the ids that step asked for.
        self._held_paths: list[int] = []
        self._hold_ids: Optional[list[int]] = None
        self.position_map = ObjectPositionMap(config, self.rng, self.counter)
        #: Trace index one past the last access served.
        self._trace_cursor = 0
        # Trusted set-up, uncharged: each block as deep as it fits on its
        # initial path, in id order; what does not fit waits in the stash.
        for block_id in range(config.num_blocks):
            block = Block(block_id=block_id, leaf=self.position_map.peek(block_id))
            if not self.tree.try_place_on_path(block):
                self.stash.add(block)

    # ------------------------------------------------------------------
    # The per-access protocol
    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Perform one oblivious access to ``block_id`` (PathORAM sequence)."""
        self._refuse_while_held()
        return self._access(block_id, op, new_payload)

    def _access(self, block_id: int, op: AccessOp, new_payload, hold: bool = False):
        """One access; ``hold`` leaves its path for the commit to write back."""
        self._check_block_id(block_id)
        self.counter.record_logical_access()

        block = self.stash.get(block_id)
        if block is None:
            # The new leaf is decided and installed by the map access that
            # reads the old one, before the path read.
            leaf = self.position_map.update(block_id, self._choose_new_leaf(block_id))
            self._read_path_into_stash(leaf, dummy=False)
            block = self.stash.get(block_id)
            if block is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
            payload = self._serve(block, op, new_payload)
            if hold:
                self._held_paths.append(leaf)
            else:
                self._write_back(leaf)
        else:
            # A stashed block is served first, then remapped.
            self.counter.record_stash_hit()
            payload = self._serve(block, op, new_payload)
            self._update_leaf(block_id, self._choose_new_leaf(block_id))

        # Served: the cursor passes the access before any eviction.
        self._trace_cursor += 1
        if hold:
            return payload
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payload

    def dummy_access(self) -> None:
        """Read and write back the path of a fresh leaf, touching no block."""
        self._refuse_while_held()
        leaf = self._draw_leaf()
        self._read_path_into_stash(leaf, dummy=True)
        self._write_back(leaf)

    def _draw_leaf(self) -> int:
        """One uniform leaf: one scalar draw."""
        return int(self.rng.integers(0, self.config.num_leaves))

    def _choose_new_leaf(self, block_id: int) -> int:
        """Path ORAM remaps to a fresh uniform leaf."""
        return self._draw_leaf()

    @staticmethod
    def _serve(block: Block, op: AccessOp, new_payload: Optional[object]):
        if op is AccessOp.WRITE:
            block.payload = new_payload
        return block.payload

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        """Remap a stashed block: one position-map update, then its label."""
        self.position_map.update(block_id, leaf)
        self.stash.get(block_id).leaf = leaf

    def _read_path_into_stash(self, leaf: int, dummy: bool) -> None:
        """Count one path read, then move the path's blocks into the stash."""
        self.counter.record_path_read(*self.tree.path_cost, dummy=dummy)
        if self.observer is not None:
            self.observer.observe_path(leaf, dummy=dummy)
        self._fetch_path(leaf)

    def _fetch_path(self, leaf: int) -> None:
        """Every block on the path enters the stash under the map's label.

        The whole path lands before an overflow raises.
        """
        blocks = self.tree.read_path(leaf)
        for block in blocks:
            block.leaf = self.position_map.peek(block.block_id)
        self.stash.extend(blocks)

    def _write_back(self, leaf: int) -> None:
        """Greedily write stash blocks back onto the path to ``leaf``."""
        self.tree.write_path(leaf, plan_greedy_write_back(self.tree, self.stash, leaf))
        self.counter.record_path_write(*self.tree.path_cost)

    def _maybe_background_evict(self) -> None:
        """Dummy reads, one path each, while the stash is above the trigger."""
        config = self.config
        if not (config.background_eviction and len(self.stash) > config.eviction_threshold):
            return
        self.counter.record_background_eviction()
        dummy_reads = 0
        while (
            dummy_reads < MAX_DUMMY_READS_PER_EPISODE
            and len(self.stash) > config.eviction_target
        ):
            self.dummy_access()
            dummy_reads += 1

    # ------------------------------------------------------------------
    # A training step: hold, then commit
    # ------------------------------------------------------------------
    def hold_many(self, block_ids) -> list:
        """Read ``block_ids`` now and write their paths back at :meth:`commit`.

        A raise writes back the paths read so far and opens no hold.
        """
        self._refuse_while_held()
        ids = [int(block_id) for block_id in block_ids]
        try:
            rows = self._hold_request(ids)
        except BaseException:
            self._end_hold()
            raise
        self._hold_ids = ids
        return rows

    def _hold_request(self, ids: list[int]) -> list:
        """Path ORAM serves the step one held access at a time."""
        return [self._access(block_id, AccessOp.READ, None, hold=True) for block_id in ids]

    def commit(self, block_ids, payloads) -> None:
        """Give the held blocks their new payloads and write the held paths back.

        Only the ids the hold was opened with, in order, are accepted; the
        last payload of a repeated id wins.  The commit counts one logical
        access per id and reads no path.  Whatever it rejects, every held
        path is written back.
        """
        hold_ids, self._hold_ids = self._hold_ids, None
        if hold_ids is None:
            raise ConfigurationError("commit without an open hold")
        try:
            ids = [int(block_id) for block_id in block_ids]
            if ids != hold_ids:
                raise ConfigurationError("commit ids differ from the held ids")
            if len(payloads) != len(ids):
                raise ConfigurationError("block_ids and payloads must have equal length")
            for block_id, payload in zip(ids, payloads):
                self.stash.get(block_id).payload = payload
            self.counter.record_logical_access(len(ids))
        finally:
            self._end_hold()

    def _end_hold(self) -> None:
        """The held paths written back as one subtree, then the access's epilogue.

        Each path read counts one path write.
        """
        paths, self._held_paths = self._held_paths, []
        for index, blocks in plan_subtree_write_back(self.tree, self.stash, paths).items():
            self.tree.bucket_by_index(index).extend(blocks)
        for _ in paths:
            self.counter.record_path_write(*self.tree.path_cost)
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))

    def _refuse_while_held(self) -> None:
        if self._hold_ids is not None:
            raise ConfigurationError("a hold is open: commit it before the next access")

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )

    # ------------------------------------------------------------------
    # Payloads (trusted set-up)
    # ------------------------------------------------------------------
    def load_payloads(self, payloads) -> None:
        """Install payloads during trusted set-up (no traffic charged).

        A payload matrix is lent, not copied: each block takes a read-only
        view of its row, and a block past the matrix the one shared
        read-only zero row.
        """
        self._check_payloads(payloads)
        blocks = list(chain(self.stash, self.tree.iter_blocks()))
        if isinstance(payloads, np.ndarray):
            rows = read_only(payloads)
            zero = read_only(np.zeros(rows.shape[1], dtype=rows.dtype))
            for block in blocks:
                block.payload = rows[block.block_id] if block.block_id < len(rows) else zero
            return
        for block in blocks:
            if block.block_id in payloads:
                block.payload = payloads[block.block_id]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def statistics(self) -> TrafficSnapshot:
        return self.counter.snapshot()

    @property
    def simulated_time_s(self) -> float:
        return PAPER_TIMING.elapsed_s(self.counter)

    @property
    def server_memory_bytes(self) -> int:
        return self.tree.server_memory_bytes

    @property
    def stash_occupancy(self) -> int:
        return len(self.stash)

    def total_real_blocks(self) -> int:
        return self.tree.real_block_count() + len(self.stash)

    def client_memory_bytes(self) -> int:
        """Position map, plus each stashed block's payload, id and leaf."""
        stash_bytes = len(self.stash) * (
            self.config.block_size_bytes + self.STASH_ENTRY_OVERHEAD_BYTES
        )
        return self.position_map.client_memory_bytes() + stash_bytes
