"""The reference LAORAM client, written from the paper (Sec. IV).

:class:`ObjectLAORAMClient` is :class:`~oracle.engine.ObjectPathORAM` with
one policy changed: a block leaving the stash is remapped to the path of
the superblock holding its next planned access.  The plan is one window of
the trace (:class:`PlanWindow`): one uniform leaf per superblock bin, drawn
from the engine's stream before anything else of the window, and a dict of
each block's occurrences.  Bins end on global multiples of ``S``, so a
window or a request that starts off a boundary opens with a short bin and
a request ends its last bin where it ends.  The client serves one bin at a
time (:meth:`ObjectLAORAMClient.access_superblock`): every distinct block's
remap is looked up in the plan first, then each distinct path is read once,
then each read path is written back.  A held training step serves its bins
the same way but stops each before its write-backs: the commit writes every
held path back in read order.  Trusted placement moves the planned
blocks to their first bin's path in ascending id order.

A plan handed in through :meth:`~ObjectLAORAMClient.set_plan` is read as
data only — its ``addresses``, ``bin_leaves``, ``start_index``,
``superblock_size`` and ``num_leaves`` — so the library's plan and bin
cutter are never run here.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

from repro.core.config import LAORAMConfig
from repro.exceptions import BlockNotFoundError, ConfigurationError, TraceError
from repro.oram.base import AccessOp

from oracle.engine import ObjectPathORAM


class PlanWindow:
    """One planned window: its accesses, its bin leaves, what was handed out."""

    def __init__(
        self, addresses, bin_leaves, start_index: int, superblock_size: int, num_leaves: int
    ):
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.bin_leaves = np.asarray(bin_leaves, dtype=np.int64)
        self.start_index = start_index
        self.superblock_size = superblock_size
        self.num_leaves = num_leaves
        #: Block id -> trace indices of its accesses, ascending.
        self.occurrences: dict[int, list[int]] = {}
        for offset, block_id in enumerate(self.addresses.tolist()):
            self.occurrences.setdefault(block_id, []).append(start_index + offset)
        #: Block id -> the latest occurrence whose leaf was handed out.
        self.consumed_up_to: dict[int, int] = {}

    @property
    def num_accesses(self) -> int:
        return int(self.addresses.size)

    def __len__(self) -> int:
        return int(self.bin_leaves.size)

    def leaf_at(self, index: int) -> int:
        """Leaf of the bin holding trace index ``index``."""
        size = self.superblock_size
        return int(self.bin_leaves[index // size - self.start_index // size])

    def consume_next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Leaf of ``block_id``'s first occurrence past ``after_index`` not yet handed out."""
        occurrences = self.occurrences.get(block_id, [])
        floor = max(after_index, self.consumed_up_to.get(block_id, -1))
        position = bisect_right(occurrences, floor)
        if position == len(occurrences):
            return None
        self.consumed_up_to[block_id] = occurrences[position]
        return self.leaf_at(occurrences[position])

    def metadata_bytes(self) -> int:
        """One (block id, path) record per planned access, each field in whole bytes."""
        if not self.num_accesses:
            return 0
        id_bytes = max(1, (max(self.occurrences).bit_length() + 7) // 8)
        leaf_bytes = max(1, ((self.num_leaves - 1).bit_length() + 7) // 8)
        return self.num_accesses * (id_bytes + leaf_bytes)


class ObjectLAORAMClient(ObjectPathORAM):
    """Look-ahead ORAM client, per-object: the reference."""

    def __init__(self, config: LAORAMConfig, counter=None, observer=None):
        if not isinstance(config, LAORAMConfig):
            raise ConfigurationError(f"{type(self).__name__} requires an LAORAMConfig")
        super().__init__(config.oram, counter=counter, observer=observer)
        self.laoram_config = config
        self._plan: Optional[PlanWindow] = None
        self._plan_source = None
        self._bins_by_lookup = 0

    # ------------------------------------------------------------------
    # The plan
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[PlanWindow]:
        return self._plan

    @property
    def bins_by_position(self) -> int:
        """Always 0: the reference looks every remap up."""
        return 0

    @property
    def bins_by_lookup(self) -> int:
        return self._bins_by_lookup

    @property
    def trace_cursor(self) -> int:
        return self._trace_cursor

    @property
    def superblock_size(self) -> int:
        return self.laoram_config.superblock_size

    def describe(self) -> str:
        return self.laoram_config.describe()

    def _window(self, plan) -> PlanWindow:
        """``plan`` as a window: the installed one if it was read from it,
        else one read from its data."""
        if isinstance(plan, PlanWindow):
            return plan
        if plan is self._plan_source and self._plan is not None:
            return self._plan
        return PlanWindow(
            plan.addresses, plan.bin_leaves, plan.start_index,
            plan.superblock_size, plan.num_leaves,
        )

    def set_plan(self, plan) -> None:
        self._plan = None if plan is None else self._window(plan)
        self._plan_source = plan
        self._bins_by_lookup = 0

    def preprocess(self, addresses, start_index: int = 0) -> PlanWindow:
        """Draw one leaf per bin of the window from the stream, and install it."""
        addr = np.asarray(addresses, dtype=np.int64)
        if addr.ndim != 1:
            raise TraceError("address stream must be one-dimensional")
        if addr.size == 0:
            raise TraceError("address stream must be non-empty")
        if addr.min() < 0:
            raise TraceError("address stream contains negative block ids")
        size = self.superblock_size
        num_bins = -(-(start_index % size + addr.size) // size)
        leaves = [self._draw_leaf() for _ in range(num_bins)]
        window = PlanWindow(addr, leaves, start_index, size, self.config.num_leaves)
        self.set_plan(window)
        return window

    def apply_initial_placement(self, plan) -> None:
        """Trusted set-up: each planned block moves to its first bin's path.

        The blocks leave the stash or their buckets, then are placed in
        ascending id order, each as deep as it fits on its new path; what
        does not fit enters the stash in that order.  Each first occurrence
        counts as handed out.
        """
        if self.counter.logical_accesses:
            raise ConfigurationError("initial placement can only be applied before any access")
        window = self._window(plan)
        moved = []
        for block_id in sorted(window.occurrences):
            if block_id >= self.config.num_blocks:
                continue
            first = window.occurrences[block_id][0]
            window.consumed_up_to.setdefault(block_id, first)
            old_leaf = self.position_map.peek(block_id)
            block = self.stash.pop(block_id)
            if block is None:
                block = self._remove_from_path(old_leaf, block_id)
            block.leaf = window.leaf_at(first)
            moved.append(block)
        self.position_map.load_many([b.block_id for b in moved], [b.leaf for b in moved])
        self.stash.extend([b for b in moved if not self.tree.try_place_on_path(b)])

    def _remove_from_path(self, leaf: int, block_id: int):
        """Take ``block_id`` out of the first bucket holding it on the path."""
        for index in self.tree.path_bucket_indices(leaf):
            block = self.tree.bucket_by_index(index).remove(block_id)
            if block is not None:
                return block
        raise BlockNotFoundError(f"block {block_id} missing from both stash and its path")

    def _planned_leaf(self, block_id: int, after_index: int) -> int:
        """The plan's next leaf for ``block_id``, else a fresh draw.

        A plan leaf is range-checked as it is decided, before any update.
        """
        if self._plan is not None:
            leaf = self._plan.consume_next_leaf(block_id, after_index)
            if leaf is not None:
                if not 0 <= leaf < self.config.num_leaves:
                    raise ConfigurationError(
                        f"planned leaf {leaf} outside [0, {self.config.num_leaves})"
                    )
                return leaf
        return self._draw_leaf()

    def _choose_new_leaf(self, block_id: int) -> int:
        return self._planned_leaf(block_id, after_index=self._trace_cursor)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """One access, Path ORAM's sequence with the plan's remap.

        A raise past the id check drops the plan.
        """
        self._refuse_while_held()
        self._check_block_id(block_id)
        try:
            return super().access(block_id, op, new_payload)
        except BaseException:
            self._plan = None
            raise

    def dummy_access(self) -> None:
        """One dummy read; a raise drops the plan, as any request's does."""
        try:
            super().dummy_access()
        except BaseException:
            self._plan = None
            raise

    def run_trace(self, block_ids, ops=None, payloads=None) -> list:
        """Plan the trace window by window and serve each window.

        A window is range-checked before it is planned; the first window of
        an engine that served nothing is placed before it is served.
        """
        self._refuse_while_held()
        if ops is not None or payloads is not None:
            raise ConfigurationError(
                "the lookahead pipeline replays read traces only; serve writes through write_many"
            )
        addr = np.asarray(block_ids, dtype=np.int64)
        window = self.laoram_config.lookahead_accesses or max(addr.size, 1)
        served: list = []
        for offset in range(0, addr.size, window):
            chunk = addr[offset : offset + window]
            if int(chunk.max()) >= self.config.num_blocks:
                self._check_block_id(int(chunk.max()))
            plan = self.preprocess(chunk, start_index=offset)
            if not self.counter.logical_accesses:
                self.apply_initial_placement(plan)
            self._trace_cursor = plan.start_index
            served.extend(self._serve_request(plan.addresses.tolist()))
        return served

    def access_many(self, block_ids: Sequence[int]) -> list:
        return self._serve_request([int(b) for b in block_ids])

    def write_many(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        ids = [int(b) for b in block_ids]
        if len(ids) != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        self._serve_request(ids, payloads)

    def _aligned_bins(self, block_ids):
        """``(start, ids, None)`` per bin of a request served from the cursor."""
        size = self.superblock_size
        start = self._trace_cursor
        ids = list(block_ids)
        bins = []
        offset = 0
        while offset < len(ids):
            end = offset + size - (start + offset) % size
            bins.append((start + offset, ids[offset:end], None))
            offset = end
        yield from bins
        self._bins_by_lookup += len(bins)

    def _hold_request(self, ids: list[int]) -> list:
        """A held step is served in superblock bins, as any request."""
        return self._serve_request(ids, hold=True)

    def _serve_request(self, block_ids: list, payloads=None, hold: bool = False) -> list:
        """One :meth:`access_superblock` per bin; a raise drops the plan."""
        self._refuse_while_held()
        first = self._trace_cursor
        served: list = []
        try:
            for start, ids, _ in self._aligned_bins(block_ids):
                updates = None
                if payloads is not None:
                    offset = start - first
                    updates = dict(zip(ids, payloads[offset : offset + len(ids)]))
                served.extend(self.access_superblock(ids, updates, hold))
        except BaseException:
            self._plan = None
            raise
        return served

    def access_superblock(
        self, block_ids: list[int], new_payloads: Optional[dict] = None, hold: bool = False
    ) -> list:
        """Serve one bin, the next at the cursor; returns its payloads in order.

        Blocks already in the stash cost nothing, and blocks sharing a path
        are fetched together.  ``new_payloads`` makes the matching accesses
        writes.  ``hold`` leaves the bin's paths to the commit: no
        write-back, no eviction, no stash observation.
        """
        needed = list(dict.fromkeys(block_ids))
        for block_id in needed:
            self._check_block_id(block_id)
        # Counted once every id passed the check: a rejected id is no access.
        self.counter.record_logical_access(len(block_ids))
        end_index = self._trace_cursor + len(block_ids) - 1

        # Every distinct block's next leaf first, in the bin's order.
        remaps = {b: self._planned_leaf(b, after_index=end_index) for b in needed}
        missing = [b for b in needed if b not in self.stash]
        hits = [b for b in needed if b in self.stash]
        self.counter.record_stash_hit(len(hits))

        # Path ORAM's order per missing block: the update returns the path it
        # sits on, read unless an earlier block of the bin read it already.
        read_leaves: list[int] = []
        for block_id in missing:
            leaf = self.position_map.update(block_id, remaps[block_id])
            if leaf not in read_leaves:
                read_leaves.append(leaf)
                self._read_path_into_stash(leaf, dummy=False)
            block = self.stash.get(block_id)
            if block is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
            block.leaf = remaps[block_id]

        payloads = []
        for block_id in block_ids:
            block = self.stash.get(block_id)
            if new_payloads is not None and block_id in new_payloads:
                block.payload = new_payloads[block_id]
            payloads.append(block.payload)

        # The stash hits' updates follow the fetch, in the bin's order.
        for block_id in hits:
            self._update_leaf(block_id, remaps[block_id])

        self._trace_cursor = end_index + 1
        if hold:
            self._held_paths.extend(read_leaves)
            return payloads

        # Path by path: a later write-back finds the buckets it shares with
        # an earlier one already refilled.
        for leaf in read_leaves:
            self._write_back(leaf)

        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payloads

    def client_memory_bytes(self) -> int:
        """The engine's footprint plus the installed plan's records."""
        plan_bytes = self._plan.metadata_bytes() if self._plan is not None else 0
        return super().client_memory_bytes() + plan_bytes
