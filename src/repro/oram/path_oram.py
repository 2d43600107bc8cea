"""PathORAM (Stefanov et al., CCS'13): the engine both families run on.

Section II-C of the paper, per access: look the block's path up in the
position map (a stashed block is served from the stash), read every bucket
on that path into the stash, serve the read or write, remap the block to a
fresh uniform path, write the stash back onto the read path as deep as the
path-prefix rule allows (greedy, occupancy aware), and, when the stash
exceeds the background-eviction threshold, read and write back random
paths until it drains.

:class:`PathORAM` runs that sequence on one kernel, :meth:`PathORAM._run_bins`,
over :class:`~repro.oram.tree.ArrayTreeStorage` slot arrays and an
:class:`~repro.oram.stash.ArrayStash` (one ``{id: leaf}`` dict), with
payloads in a client-side store.  The kernel serves bins: LAORAM's
superblock bins (:class:`~repro.core.laoram.LAORAMClient` subclasses this
engine); every PathORAM access, of a trace or a single :meth:`~PathORAM.access`,
as a one-id bin (PathORAM is the superblock of size one); and
:meth:`~PathORAM.dummy_access` as an empty bin, one dummy read.

The per-object reference engine in ``tests/oracle/`` is written from the
protocol alone and shares no scheduling code with this one; for a fixed
seed both draw the same leaves in the same order, pick the same write-back
victims and count bit-identical
:class:`~repro.memory.accounting.TrafficSnapshot` counters
(``docs/performance.md``, "Scheduling contract").  The counters are the
engine's one ledger: ``simulated_time_s`` is their price
(:data:`~repro.memory.timing.PAPER_TIMING`).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.timing import PAPER_TIMING
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy
from repro.oram.position_map import PositionMap
from repro.oram.row_store import load_rows
from repro.oram.stash import ArrayStash
from repro.oram.tree import MAX_NUM_BLOCKS, ArrayTreeStorage
from repro.oram.write_back import fetch, held_write_back, write_back
from repro.utils.rng import make_rng

#: One bin as a request is cut into them: trace index of its first access,
#: its ids in access order, and its precomputed remap leaves (``None``: ask
#: the plan, or the stream when there is none).  A bin with no ids is one
#: dummy read; ids ``None`` is the commit bin of a held step.
Bin = tuple[int, Optional[list[int]], Optional[list[int]]]


class PathORAM(ObliviousMemory):
    """PathORAM client plus its simulated server tree.

    The tree and the stash hold block ids; payloads live in a client-side
    store (payload location never affects traffic).  The store is a
    ``{block_id: payload}`` dict, or, once :meth:`load_payloads` was given a
    matrix, an :class:`~repro.oram.row_store.OverlayRowStore` over it: both
    answer ``get`` and item assignment.  Every access runs on the trace
    kernel (:meth:`_run_bins`), which never touches the store; its callers
    serve the payloads of what it got through.
    """

    #: Leaf draws per refill of the kernel's prefetched block: one
    #: ``integers`` call hands out this many leaves of the stream, in the
    #: order scalar draws would come (see :meth:`_draw_leaves`).
    LEAF_DRAW_BLOCK = 512

    #: Client-side bookkeeping per stashed block, as the paper's client
    #: would hold it: the (id, leaf) pair the stash tracks alongside the
    #: payload, 8 bytes each (a modelled size, not that of the Python dict
    #: entry standing in for it).
    STASH_ENTRY_OVERHEAD_BYTES = 16

    def __init__(
        self,
        config: ORAMConfig,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        observer=None,
    ):
        if config.num_blocks > MAX_NUM_BLOCKS:
            raise ConfigurationError(
                f"num_blocks {config.num_blocks} exceeds {MAX_NUM_BLOCKS}: a "
                "tree slot stores a block id in four bytes"
            )
        self.config = config
        self.counter = counter if counter is not None else TrafficCounter()
        self.rng = make_rng(config.seed)
        self.eviction = eviction if eviction is not None else EvictionPolicy(
            enabled=config.background_eviction,
            trigger_threshold=config.eviction_threshold,
            drain_target=config.eviction_target,
        )
        self.observer = observer
        self.tree = ArrayTreeStorage(
            depth=config.depth,
            bucket_capacities=config.bucket_capacities(),
            block_size_bytes=config.block_size_bytes,
            metadata_bytes_per_block=config.metadata_bytes_per_block,
        )
        self.stash = ArrayStash(capacity=config.stash_capacity)
        #: The paths a hold read and has not written back, in read order
        #: (:meth:`~repro.oram.base.ObliviousMemory.hold_many` until
        #: :meth:`commit`).
        self._held_paths: list[int] = []
        self.position_map = PositionMap(
            num_blocks=config.num_blocks,
            num_leaves=config.num_leaves,
            rng=self.rng,
            positions_per_block=config.posmap_positions_per_block,
            # Not recursive: no budget, so the client holds the whole map.
            cutoff_bytes=(
                config.posmap_cutoff_bytes if config.recursive_posmap else None
            ),
            metadata_bytes_per_block=config.metadata_bytes_per_block,
            counter=self.counter,
            seed=config.seed,
        )
        # Leaf draws prefetched but not handed out yet (see _draw_leaves).
        self._leaf_buf: list[int] = []
        self._leaf_buf_pos = 0
        # Hot-path caches: ``ORAMConfig.depth``/``num_leaves`` are derived
        # properties recomputed on every read (geometry is immutable).
        self._depth = config.depth
        self._num_leaves = config.num_leaves
        #: ``block_id -> payload``: a dict, or the row store of a loaded matrix.
        self._payloads = {}
        # What the write-back kernels take besides the tree's arrays: the
        # first bucket index of each level.
        self._node_base = [(1 << level) - 1 for level in range(self._depth + 1)]
        # Trusted set-up: every block onto its initial path, in chunked
        # vectorized passes over the map's own four-byte labels; overflow
        # goes to the stash in ascending id order.
        labels = self.position_map.leaf_access()[0][: config.num_blocks]
        overflow = self.tree.bulk_place(labels)
        self.stash.extend(overflow, labels[overflow])

    # ------------------------------------------------------------------
    # ObliviousMemory interface
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
        """Current number of blocks held in the client stash."""
        return len(self.stash)

    def load_payloads(self, payloads) -> None:
        """Install payloads for blocks during trusted setup (no traffic charged).

        ``payloads`` is a ``{block_id: payload}`` mapping, or a ``(rows, dim)``
        array whose row ``i`` is block ``i``'s payload.  An array is lent,
        not copied: it becomes the read-only base of an
        :class:`~repro.oram.row_store.OverlayRowStore`, writes land in the
        store's overlay, and the caller keeps the array unchanged for the
        engine's lifetime.  Reads return read-only rows; blocks past ``rows``
        read as zero rows.
        """
        self._check_payloads(payloads)
        self._payloads = load_rows(self._payloads, payloads, self.config.num_blocks)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_real_blocks(self) -> int:
        """Blocks present across tree and stash (must equal ``num_blocks``).

        An open hold's blocks, and the rest of the paths it read, are in
        the stash until the commit writes the paths back.
        """
        return self.tree.real_block_count() + len(self.stash)

    def client_memory_bytes(self) -> int:
        """Client memory: position map (incl. recursion levels) plus stash.

        Stash entries are charged at ``block_size_bytes`` plus the id/leaf
        bookkeeping — *not* at ``stored_block_bytes``, whose
        ``metadata_bytes_per_block`` component (MACs) exists only on the
        server wire format and is never held by the client.  While a hold is
        open the stash carries every path it read.  The position
        map term covers the dense array or, under ``recursive_posmap``,
        the recursion top map and per-level stash residue.
        """
        stash_bytes = len(self.stash) * (
            self.config.block_size_bytes + self.STASH_ENTRY_OVERHEAD_BYTES
        )
        return self.position_map.client_memory_bytes() + stash_bytes

    # ------------------------------------------------------------------
    # The leaf stream
    # ------------------------------------------------------------------
    def _draw_leaves(self, count: int) -> np.ndarray:
        """The next ``count`` uniform leaves of the engine's one stream.

        Leaves the engine prefetched and has not handed out yet come first,
        then one ``integers`` call for the rest.  A sized ``integers(0, n,
        size=k)`` call consumes the generator stream exactly like ``k``
        scalar calls, so the values and the generator's final state are
        those of ``count`` scalar draws, however the draws were blocked.
        LAORAM's preprocessor takes its bin leaves here, so they stay in
        stream order.
        """
        pos = self._leaf_buf_pos
        buffered = self._leaf_buf[pos : pos + count]
        self._leaf_buf_pos = pos + len(buffered)
        rest = self.rng.integers(
            0, self._num_leaves, size=count - len(buffered), dtype=np.int64
        )
        if not buffered:
            return rest
        return np.concatenate([np.asarray(buffered, dtype=np.int64), rest])

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )

    def _check_no_hold(self) -> None:
        """Every access but :meth:`commit` waits until an open hold is committed."""
        if self._hold_ids is not None:
            raise ConfigurationError("a hold is open: commit it before the next access")

    # -- the trace kernel -----------------------------------------------
    #: The lookahead plan the kernel asks for remaps, and the trace index one
    #: past the last bin it served.  LAORAM clients keep both per instance;
    #: PathORAM has no plan and starts its cursor at 0 on every trace.
    _plan = None
    _trace_cursor = 0

    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """One access: a one-id bin at the cursor, then its payload.

        The kernel decides what Path ORAM's per-access sequence decides —
        the remap (the plan's next occurrence after the cursor, else the
        stream's next leaf), the path read or stash hit, the write-back and
        any background eviction — and advances the cursor by one.  A write
        stores ``new_payload`` once the kernel got the block through, in a
        ``finally``, so an overflow in the eviction that follows keeps it.
        A write to a stash hit stores it before the kernel runs: Path ORAM
        serves a stashed block before remapping it, so a remap that raises
        (a corrupted recursive map's walk, a plan leaf outside the tree)
        keeps the write, as on the reference engine.  An out-of-range id
        raises before the kernel runs.
        """
        self._check_no_hold()
        self._check_block_id(block_id)
        first = self._trace_cursor
        write = op is AccessOp.WRITE
        payloads = self._payloads
        # oblivious: allow[OBL001] client-side: when a stash hit's payload is
        # stored; the kernel's traffic is the same either way
        if write and block_id in self.stash.entries:
            payloads[block_id] = new_payload
        try:
            self._run_bins(((first, [block_id], None),))
        finally:
            if write and self._trace_cursor > first:
                payloads[block_id] = new_payload
        return payloads.get(block_id)

    def dummy_access(self) -> None:
        """Read and write back one path of the stream's next leaf: an empty bin."""
        self._run_bins(((self._trace_cursor, [], None),))

    def run_trace(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """PathORAM on the bin kernel (see :meth:`ObliviousMemory.run_trace`).

        PathORAM is the superblock of size one: each access is a one-id
        bin with no plan, so its remap is the stream's next leaf.  The
        kernel moves blocks and counts; the payloads of the accesses it got
        through are served after it, in order, so a read sees every write
        before it.  That runs in a ``finally``: a raise keeps the writes of
        the accesses served before it, as the generic loop does.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        op_seq, payload_seq = self._normalize_trace_args(len(ids), ops, payloads)
        self._trace_cursor = 0
        try:
            self._run_bins(
                (index, [block_id], None) for index, block_id in enumerate(ids)
            )
        finally:
            served = islice(ids, self._trace_cursor)
            store = self._payloads
            if op_seq is None:
                results = list(map(store.get, served))
            else:
                results = []
                for block_id, op, payload in zip(served, op_seq, payload_seq):
                    if op is AccessOp.WRITE:
                        store[block_id] = payload
                    else:
                        payload = store.get(block_id)
                    results.append(payload)
        return results

    # -- a training step: hold, then commit ------------------------------
    def commit(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        """Store the held rows, then write back every path the hold read.

        ``block_ids`` must be the ids the hold was opened with, in order;
        duplicate ids keep the last payload.  The commit counts
        ``len(block_ids)`` logical accesses and reads no path of its own:
        it runs the commit bin (:meth:`_run_bins`), which writes the hold's
        paths back in read order, each with its own blocks, the held ones
        under their new leaves, and then takes the after-bin step of any
        bin.  Ids that differ from the held ones, or a length mismatch,
        raise ``ConfigurationError`` and store nothing, but the paths are
        written back all the same, so nothing stays held.
        """
        if self._hold_ids is None:
            raise ConfigurationError("commit without an open hold")
        try:
            ids = self._close_hold(block_ids)
            if len(payloads) != len(ids):
                raise ConfigurationError("block_ids and payloads must have equal length")
            self._store_rows(ids, payloads)
            self.counter.record_logical_access(len(ids))
        finally:
            self._end_hold()

    def _end_hold(self) -> None:
        """The commit bin: the hold's paths written back, then the after-bin step."""
        self._run_bins(((self._trace_cursor, None, None),))

    def _store_rows(self, block_ids, rows) -> None:
        """Store ``rows`` for ``block_ids``; a repeated id keeps its last row."""
        store = self._payloads
        if isinstance(store, dict):
            store.update(zip(block_ids, rows))
        else:
            store.scatter(block_ids, rows)

    def _run_bins(self, bins: Iterable[Bin]) -> None:
        """Serve ``bins`` in order: the one place an access of any kind runs.

        Mirrors the per-object reference client's ``access_superblock``
        (``tests/oracle/laoram.py``) decision for decision on the stash's
        dict (id -> leaf, insertion ordered as the reference stash is, so
        every write-back tie-break is the same), and on a one-id bin the
        reference engine's per-access ``access``.  Every
        distinct block's new leaf is decided first, in the bin's order — the
        bin's precomputed leaf, else what the plan hands out, else (``-1``
        or no plan) the next leaf of the engine's one stream.  Then, in Path
        ORAM's order, each missing block's ``update`` installs it and
        returns the path the block sits on, fetched unless the bin read it
        already, so each distinct path is read once in first-encounter
        order; the stash hits' updates follow, free of traffic but for
        their walks.  Each path read is written back, path by path.  A path
        its own fetch just emptied — a bin's first, every dummy read's — and
        a later path of the bin, which finds the buckets it shares with an
        earlier one refilled, take the one occupancy-aware ``write_back``
        (C, ``oram/_write_back.c``).  Background eviction
        runs inline.  A one-id bin (every PathORAM access, every single
        ``access``) is its own distinct-id list, with no deduplication pass.
        An empty bin (``dummy_access``) decides, reads and counts nothing
        on its way to the eviction loop and runs that loop's body once: a
        path of the stream's next leaf read and written back, with no
        episode counted and no stash observation.

        While :meth:`~repro.oram.base.ObliviousMemory.hold_many`'s read
        request runs, a bin stops after its updates: its read paths join
        ``self._held_paths`` and its blocks, the path's others with them,
        stay in the stash, with no write-back, no eviction and no stash
        observation.  A later bin of the step finds them there as stash
        hits.  The commit bin (``block_ids`` ``None``, run by
        :meth:`commit`, or by a hold that raised) writes those paths back in
        read order (``held_write_back``), so each held block goes back with
        the path it came from, as Path ORAM places it, and then ends as a
        counted bin: the eviction check and the stash observation.  No
        other kernel call starts while a hold is open.

        Every path is read by the C ``fetch`` over the operands the
        write-backs take, plus the map's tags: each fetched block enters
        the stash under its label.  The stream's prefetched block is bound as
        locals: the fallback remaps and the dummy reads take their leaves
        from it, in the order the reference engines' scalar draws come, and
        it is refilled with one ``integers`` call of ``LEAF_DRAW_BLOCK``
        leaves.  Nothing here
        calls ``_draw_leaves``, which would hand out leaves the locals
        still hold.

        Access and path counts accumulate in locals; a bin is counted once
        its ids passed the range check, so a rejected id is no access.  One
        ``finally`` stores the cursor and the leaf buffer and folds the
        counts into the counter with one ``add_bulk`` — one tree has one
        path geometry, so buckets and bytes are the path counts multiplied
        out — so a raise mid-window leaves the engine
        consistent and able to serve the next call: the capacity check runs
        after a path's blocks entered the stash, under the map's labels, and
        a block not yet updated still sits where the map says, so an
        overflow loses nothing.  A raise also drops the plan — the plan counts the whole of
        the bin's precomputed remaps as handed out when only some were, and
        its lookups would no longer be the reference client's — so later
        remaps draw uniformly.
        """
        self._check_no_hold()
        num_blocks = self.config.num_blocks
        num_leaves = self._num_leaves
        depth = self._depth
        tree = self.tree
        stash = self.stash
        counter = self.counter
        observer = self.observer
        capacity = stash.capacity
        should_trigger = self.eviction.should_trigger
        should_continue = self.eviction.should_continue
        plan = self._plan
        consume_next_leaf = None if plan is None else plan.consume_next_leaf
        rng_integers = self.rng.integers
        draw_block = self.LEAF_DRAW_BLOCK
        leaf_buf = self._leaf_buf
        leaf_pos = self._leaf_buf_pos

        tags, update = self.position_map.leaf_access()
        slots = tree.slot_view
        caps = tree.bucket_capacities
        level_base = tree.level_base
        node_base = self._node_base
        occ = tree.occupancy_view

        stash_map = stash.entries
        held_paths = self._held_paths
        holding = self._holding

        # Deferred counts, flushed in the finally below.
        logical = path_reads = path_writes = dummy_reads = episodes = hits = 0
        stash_peak = counter.stash_peak
        history = counter.stash_history if counter.record_stash_history else None
        cursor = self._trace_cursor

        try:
            for start_index, block_ids, bin_remaps in bins:
                # oblivious: allow[OBL001] the commit bin closes a held step:
                # one per step, which is public
                if block_ids is None:
                    # The commit bin: the hold's paths go back in read order,
                    # each with its own blocks, then the bin ends as any
                    # counted bin does.
                    held_write_back(
                        stash_map, caps, level_base, node_base, slots, occ,
                        depth, held_paths,
                    )
                    path_writes += len(held_paths)
                    held_paths.clear()
                    dummy = False
                else:
                    count = len(block_ids)
                    dummy = not count
                    # oblivious: allow[ALLOC001] one distinct-id list per bin of
                    # several ids; a one-id bin is its own
                    needed = block_ids if count == 1 else list(dict.fromkeys(block_ids))
                    for block_id in needed:
                        # oblivious: allow[OBL001] bounds check against the public
                        # num_blocks; invalid ids abort the run loudly
                        if block_id < 0 or block_id >= num_blocks:
                            raise BlockNotFoundError(
                                f"block {block_id} outside [0, {num_blocks})"
                            )
                    logical += count

                    # Decide every distinct block's next leaf, in the bin's order:
                    # its next planned occurrence, else the stream's next leaf.
                    # Plan leaves are range-checked (the dense update is the
                    # bare array write) so a plan built for a different tree
                    # fails here, before any update, as the per-object client does.
                    end_index = start_index + count - 1
                    remaps = []
                    missing = []
                    stashed = []
                    for position, block_id in enumerate(needed):
                        # oblivious: allow[OBL001] where the new leaf comes
                        # from is client-side: no traffic either way
                        if bin_remaps is not None:
                            leaf = bin_remaps[position]
                            # oblivious: allow[OBL001] no future occurrence
                            # planned: the uniform fallback draw, client-side
                            if leaf < 0:
                                leaf = None
                        elif consume_next_leaf is not None:
                            leaf = consume_next_leaf(block_id, end_index)
                        else:
                            leaf = None
                        # No planned occurrence, or no plan: the stream's next leaf.
                        if leaf is None:
                            if leaf_pos == len(leaf_buf):
                                leaf_buf = rng_integers(
                                    0, num_leaves, size=draw_block
                                ).tolist()
                                leaf_pos = 0
                            leaf = leaf_buf[leaf_pos]
                            leaf_pos += 1
                        elif not 0 <= leaf < num_leaves:
                            raise ConfigurationError(
                                f"planned leaf {leaf} outside [0, {num_leaves})"
                            )
                        remaps.append(leaf)
                        # oblivious: allow[OBL001] fused replay of the bin's
                        # stash-hit fast path — hits counted the same
                        if block_id in stash_map:
                            stashed.append(position)
                        else:
                            missing.append(position)
                    hits += len(stashed)

                    # Path ORAM's order per missing block: its update returns the
                    # path it sits on, fetched unless an earlier block of the bin
                    # read it already (which brought the block in under its old
                    # label).  A fetched block takes its tag, the new label; a
                    # raise leaves every block updated and stashed, or untouched.
                    # The bin's lists hold positions, not (id, leaf) pairs: a
                    # tuple per id fragmented the heap (+1.6 MiB peak RSS on the
                    # suite's replay_laoram).
                    read_leaves = []
                    for position in missing:
                        block_id = needed[position]
                        new_leaf = remaps[position]
                        leaf = update(block_id, new_leaf)
                        # oblivious: allow[OBL001] a bin fetches each distinct path
                        # its missing blocks sit on: the protocol's observable,
                        # every one a uniform independent draw (paper, Sec. VI)
                        if leaf not in read_leaves:
                            read_leaves.append(leaf)
                            fetch(
                                stash_map, caps, level_base, node_base, slots,
                                occ, depth, tags, leaf,
                            )
                            path_reads += 1
                            if observer is not None:
                                observer.observe_path(leaf, dummy=False)
                            # oblivious: allow[OBL001] stash-capacity check:
                            # overflow is PathORAM's stated failure event and
                            # aborts the run
                            if capacity is not None and len(stash_map) > capacity:
                                raise StashOverflowError(
                                    f"stash exceeded its capacity of {capacity} blocks"
                                )
                        # oblivious: allow[OBL001] integrity check; aborts the run
                        if block_id not in stash_map:
                            raise BlockNotFoundError(
                                f"block {block_id} missing from both stash "
                                "and its path"
                            )
                        stash_map[block_id] = new_leaf
                    # The stash hits' updates follow the fetch, as their walks do
                    # on the per-object client.
                    for position in stashed:
                        block_id = needed[position]
                        new_leaf = remaps[position]
                        update(block_id, new_leaf)
                        stash_map[block_id] = new_leaf

                    # A hold leaves the bin's paths, and with them its blocks,
                    # in the stash for the commit bin to write back.
                    if holding:
                        held_paths.extend(read_leaves)
                        cursor = end_index + 1
                        continue

                    # Path by path: the first was emptied by its fetch (the
                    # bin's later fetches only empty more buckets); a later one
                    # finds the buckets it shares with an earlier one refilled.
                    # oblivious: allow[OBL002] one write-back per path fetched
                    # above: the same revealed count
                    for leaf in read_leaves:
                        write_back(
                            stash_map, caps, level_base, node_base, slots, occ,
                            depth, leaf,
                        )
                        path_writes += 1

                    cursor = end_index + 1
                occupancy = len(stash_map)
                # An empty bin has passed through the above untouched: it is
                # one turn of the eviction loop, counting no episode and
                # observing no stash, as the reference's dummy_access.
                # oblivious: allow[OBL001] fused replay of the documented
                # occupancy-triggered background eviction policy
                if dummy or should_trigger(occupancy):
                    if not dummy:
                        episodes += 1
                    dummies = 0
                    # oblivious: allow[OBL002] episode length tracks occupancy
                    # by design — same documented policy as the trigger
                    while not dummies if dummy else should_continue(occupancy, dummies):
                        if leaf_pos == len(leaf_buf):
                            leaf_buf = rng_integers(
                                0, num_leaves, size=draw_block
                            ).tolist()
                            leaf_pos = 0
                        leaf = leaf_buf[leaf_pos]
                        leaf_pos += 1
                        fetch(
                            stash_map, caps, level_base, node_base, slots, occ,
                            depth, tags, leaf,
                        )
                        dummy_reads += 1
                        if observer is not None:
                            observer.observe_path(leaf, dummy=True)
                        # oblivious: allow[OBL001] stash-capacity check:
                        # overflow aborts the run loudly
                        if capacity is not None and len(stash_map) > capacity:
                            raise StashOverflowError(
                                f"stash exceeded its capacity of {capacity} blocks"
                            )
                        write_back(
                            stash_map, caps, level_base, node_base, slots, occ,
                            depth, leaf,
                        )
                        path_writes += 1
                        dummies += 1
                        occupancy = len(stash_map)
                    if dummy:
                        continue

                # oblivious: allow[OBL001] client-side metrics (stash peak
                # tracking); no server traffic
                if occupancy > stash_peak:
                    stash_peak = occupancy
                if history is not None:
                    history.append(occupancy)
        except BaseException:
            self._plan = None
            raise
        finally:
            self._trace_cursor = cursor
            self._leaf_buf = leaf_buf
            self._leaf_buf_pos = leaf_pos
            path_buckets, path_bytes = tree.path_cost
            reads = path_reads + dummy_reads
            counter.add_bulk(
                logical,
                path_reads,
                path_writes,
                dummy_reads,
                reads * path_buckets,
                path_writes * path_buckets,
                reads * path_bytes,
                path_writes * path_bytes,
                stash_peak,
                episodes,
                hits,
            )
