"""The per-object reference engine: Path ORAM one access at a time.

:class:`ObjectStorageEngine` keeps :class:`~oracle.block.Block` objects in
per-bucket lists (:class:`~oracle.tree.TreeStorage`) and a dict stash
(:class:`~oracle.stash.Stash`), and runs the textbook sequence through a
small template of storage hooks: position-map update, path read into the
stash, serve, greedy occupancy-aware write-back
(:func:`~oracle.write_back.plan_greedy_write_back`), then
threshold-triggered background eviction by dummy reads.  It shares the
library's :class:`~repro.oram.engine.TreeORAMEngine` (configuration,
counter, position map, leaf stream), draws its leaves one scalar call at a
time, and is the oracle the shipped array engine's one kernel is held to:
for a fixed seed both make the same decisions and count the same traffic.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from repro.exceptions import BlockNotFoundError
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.engine import TreeORAMEngine
from repro.oram.row_store import read_only

from oracle.block import Block
from oracle.stash import Stash
from oracle.tree import TreeStorage
from oracle.write_back import plan_greedy_write_back


class ObjectStorageEngine(TreeORAMEngine):
    """Per-object storage backend: Block objects, list buckets, dict stash."""

    #: Trace index one past the last access served, as the kernel keeps it.
    _trace_cursor = 0

    def __init__(self, config: ORAMConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._bulk_load()

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
        self._check_block_id(block_id)
        self.counter.record_logical_access()

        handle = self._stash_lookup(block_id)
        if handle is None:
            # Path ORAM's order: the new leaf is decided and installed by
            # the map access that reads the old one, before the path read;
            # the fetched block comes off the path under the new label.
            leaf = self.position_map.update(
                block_id, self._choose_new_leaf(block_id)
            )
            self._read_path_into_stash(leaf, dummy=False)
            handle = self._stash_lookup(block_id)
            if handle is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
            payload = self._serve(handle, op, new_payload)
            self._write_back(leaf)
        else:
            self.counter.record_stash_hit()
            payload = self._serve(handle, op, new_payload)
            self._update_leaf(block_id, self._choose_new_leaf(block_id))

        # Served: the cursor passes the access before any eviction, as it
        # passes a bin.
        self._trace_cursor += 1
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payload

    def _draw_leaf(self) -> int:
        """Draw one uniform leaf from the engine's RNG (one scalar call)."""
        return int(self.rng.integers(0, self._num_leaves))

    def _choose_new_leaf(self, block_id: int) -> int:
        """Uniformly random new path; LAORAM overrides this with its plan."""
        return self._draw_leaf()

    def _read_path_into_stash(self, leaf: int, dummy: bool) -> None:
        """Fetch a full path from the server into the stash.

        The read is counted before the stash takes the path, so a fetch
        that overflows the stash is counted.
        """
        num_buckets, num_bytes = self.tree.path_cost
        self.counter.record_path_read(num_buckets, num_bytes, dummy=dummy)
        if self.observer is not None:
            self.observer.observe_path(leaf, dummy=dummy)
        self._fetch_path(leaf)

    def _write_back(self, leaf: int) -> None:
        """Greedily write stash blocks back onto the path to ``leaf``."""
        self._commit_write_back(leaf)
        num_buckets, num_bytes = self.tree.path_cost
        self.counter.record_path_write(num_buckets, num_bytes)

    def _maybe_background_evict(self) -> None:
        """Run the dummy-read eviction loop when the stash is too full.

        Always single-path episodes, even after a multi-path superblock bin:
        a read-one-write-one dummy access drains the stash monotonically.
        """
        if not self.eviction.should_trigger(len(self.stash)):
            return
        self.counter.record_background_eviction()
        dummy_reads = 0
        while self.eviction.should_continue(len(self.stash), dummy_reads):
            self.dummy_access()
            dummy_reads += 1

    def dummy_access(self) -> None:
        """Read and write back one random path without touching any block."""
        leaf = self._draw_leaf()
        self._read_path_into_stash(leaf, dummy=True)
        self._write_back(leaf)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _make_tree(self) -> TreeStorage:
        return TreeStorage(
            depth=self.config.depth,
            bucket_capacities=self.config.bucket_capacities(),
            block_size_bytes=self.config.block_size_bytes,
            metadata_bytes_per_block=self.config.metadata_bytes_per_block,
        )

    def _make_stash(self) -> Stash:
        return Stash(capacity=self.config.stash_capacity)

    def _bulk_load(self) -> None:
        """Place every block on its initial path; overflow goes to the stash.

        Initial placement is a trusted setup step performed before the
        adversary starts observing, so it is not charged to the traffic
        counters.
        """
        for block_id in range(self.config.num_blocks):
            leaf = self.position_map.peek(block_id)
            block = Block(block_id=block_id, leaf=leaf, payload=None)
            if not self.tree.try_place_on_path(block):
                self.stash.add(block)

    def load_payloads(self, payloads) -> None:
        """Install payloads for blocks during trusted setup (no traffic charged).

        A payload matrix is lent, not copied: each block takes a read-only
        view of its row, and a block past the matrix the one shared
        read-only zero row.  A write replaces a block's payload and never
        writes into the row it held, so the caller's matrix stays unchanged.
        """
        self._check_payloads(payloads)
        if isinstance(payloads, np.ndarray):
            rows = read_only(payloads)
            zero = read_only(np.zeros(rows.shape[1], dtype=rows.dtype))
            loaded = 0
            for block in chain(self.stash, self.tree.iter_blocks()):
                block_id = block.block_id
                block.payload = rows[block_id] if block_id < len(rows) else zero
                loaded += 1
            if loaded != self.config.num_blocks:
                raise BlockNotFoundError(
                    f"{self.config.num_blocks - loaded} blocks not present in the ORAM"
                )
            return
        remaining = dict(payloads)
        for block in self.stash:
            if block.block_id in remaining:
                block.payload = remaining.pop(block.block_id)
        if remaining:
            for block in self.tree.iter_blocks():
                if block.block_id in remaining:
                    block.payload = remaining.pop(block.block_id)
                    if not remaining:
                        break
        if remaining:
            raise BlockNotFoundError(
                f"{len(remaining)} payload block ids not present in the ORAM"
            )

    # ------------------------------------------------------------------
    # Storage hooks
    # ------------------------------------------------------------------
    def _stash_lookup(self, block_id: int) -> Optional[Block]:
        """The stashed block, or ``None`` if absent."""
        return self.stash.get(block_id)

    def _stash_detach(self, block_id: int) -> Optional[Block]:
        """Remove a block from the stash, returning it (or ``None``)."""
        return self.stash.pop(block_id)

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        """Remap a *stashed* block: one position-map update, then its label."""
        self.position_map.update(block_id, leaf)
        self.stash.get(block_id).leaf = leaf

    def _serve(
        self, handle: Block, op: AccessOp, new_payload: Optional[object]
    ) -> Optional[object]:
        """Apply the read/write to a stashed block and return its payload."""
        if op is AccessOp.WRITE:
            handle.payload = new_payload
        return handle.payload

    def _fetch_path(self, leaf: int) -> None:
        """Move every real block on the path to ``leaf`` into the stash.

        A fetched block takes the position map's label (the tag it carries
        on the wire), so a block whose update preceded the read arrives
        under its new leaf.  The whole path lands in the stash, under the
        map's labels, before an overflow raises.
        """
        blocks = self.tree.read_path(leaf)
        tags = self.position_map.leaf_access()[0]
        for block in blocks:
            block.leaf = tags.item(block.block_id)
        self.stash.extend(blocks)

    def _commit_write_back(self, leaf: int) -> None:
        """Plan and commit the greedy write-back onto the path to ``leaf``."""
        placement = self._plan_write_back(leaf)
        self.tree.write_path(leaf, placement)

    def _plan_write_back(self, leaf: int) -> dict[int, list[Block]]:
        """Choose which stash blocks go to which level of the accessed path."""
        return plan_greedy_write_back(self.tree, self.stash, leaf)

    def _remove_from_path(self, leaf: int, block_id: int) -> Optional[Block]:
        """Remove ``block_id`` from the first bucket holding it on the path."""
        for index in self.tree.path_bucket_indices(leaf):
            block = self.tree.bucket_by_index(index).remove(block_id)
            if block is not None:
                return block
        return None


class ObjectPathORAM(ObjectStorageEngine):
    """Reference PathORAM: the protocol is the engine, nothing on top."""
