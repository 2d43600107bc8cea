"""PathORAM (Stefanov et al., CCS'13): the engine both families run on.

Section II-C of the paper, per access: look the block's path up in the
position map (a stashed block is served from the stash), read every bucket
on that path into the stash, serve the read or write, remap the block to a
fresh uniform path, write the stash back onto the read path as deep as the
path-prefix rule allows (greedy, occupancy aware), and, when the stash
exceeds the background-eviction threshold, read and write back random
paths until it drains.

:class:`PathORAM` runs that sequence on one C kernel, ``serve``
(``oram/_write_back.c``), bound per request by :meth:`PathORAM._run_bins`,
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

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.timing import PAPER_TIMING
from repro.oram.base import AccessOp, ObliviousMemory, as_block_ids
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy
from repro.oram.position_map import PositionMap
from repro.oram.row_store import load_rows
from repro.oram.stash import ArrayStash
from repro.oram.tree import MAX_NUM_BLOCKS, ArrayTreeStorage
from repro.oram.write_back import serve
from repro.utils.rng import make_rng

#: The request of one dummy read: a bin with no ids.
DUMMY_READ = np.empty(0, dtype=np.int64)
DUMMY_READ.flags.writeable = False


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

    #: Leaf draws per refill of the kernel's prefetched block (``_leaf_buf``):
    #: one ``integers`` call hands out this many leaves of the stream, in the
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
        # The prefetched block of leaf draws and how many of it were handed
        # out (see _draw_leaves); the kernel refills it in place.
        self._leaf_buf = np.empty(self.LEAF_DRAW_BLOCK, dtype=np.int64)
        self._leaf_buf_pos = self.LEAF_DRAW_BLOCK
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
        self._leaf_buf_pos = pos + buffered.size
        rest = self.rng.integers(
            0, self._num_leaves, size=count - buffered.size, dtype=np.int64
        )
        if not buffered.size:
            return rest
        return np.concatenate([buffered, rest])

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )

    def _check_no_hold(self) -> None:
        """Every access but :meth:`commit` waits until an open hold is committed."""
        if self._hold_ids is not None:
            raise ConfigurationError("a hold is open: commit it before the next access")

    # -- the request kernel ---------------------------------------------
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
        keeps the write, as on the reference engine.  A non-integer or
        out-of-range id raises before the kernel runs.
        """
        self._check_no_hold()
        if type(block_id) is not int:
            block_id = as_block_ids([block_id]).item()
        self._check_block_id(block_id)
        first = self._trace_cursor
        write = op is AccessOp.WRITE
        payloads = self._payloads
        # oblivious: allow[OBL001] client-side: when a stash hit's payload is
        # stored; the kernel's traffic is the same either way
        if write and block_id in self.stash.entries:
            payloads[block_id] = new_payload
        try:
            self._run_bins(np.array([block_id], dtype=np.int64))
        finally:
            if write and self._trace_cursor > first:
                payloads[block_id] = new_payload
        return payloads.get(block_id)

    def dummy_access(self) -> None:
        """Read and write back one path of the stream's next leaf: an empty bin."""
        self._run_bins(DUMMY_READ)

    def run_trace(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """PathORAM on the request kernel (see :meth:`ObliviousMemory.run_trace`).

        PathORAM is the superblock of size one: each access is a one-id
        bin with no plan, so its remap is the stream's next leaf.  The
        kernel moves blocks and counts; the payloads of the accesses it got
        through are served after it, in order, so a read sees every write
        before it.  That runs in a ``finally``: a raise keeps the writes of
        the accesses served before it, as the generic loop does.  A
        non-integer id rejects the trace before any access.
        """
        ids = as_block_ids(block_ids)
        op_seq, payload_seq = self._normalize_trace_args(ids.size, ops, payloads)
        self._check_no_hold()
        self._trace_cursor = 0
        try:
            if ids.size:
                self._run_bins(ids)
        finally:
            served = ids[: self._trace_cursor].tolist()
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
        it runs the commit bin (:meth:`_run_bins` with no ids), which writes the hold's
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
        self._run_bins(None)

    def _store_rows(self, block_ids, rows) -> None:
        """Store ``rows`` for ``block_ids``; a repeated id keeps its last row."""
        store = self._payloads
        if isinstance(store, dict):
            store.update(zip(block_ids, rows))
        else:
            store.scatter(block_ids, rows)

    def _run_bins(
        self,
        block_ids: Optional[np.ndarray],
        size: int = 1,
        remaps: Optional[np.ndarray] = None,
        by_position: int = 0,
    ) -> None:
        """Serve one request on the C kernel: the one place an access of any kind runs.

        ``block_ids`` is the request (int64): it is cut into bins that end
        on global multiples of ``size`` from the cursor (``size`` 1: one-id
        bins); :data:`DUMMY_READ`, with no ids, is one empty bin and
        ``None`` the commit bin of a held step.  The first ``by_position``
        bins take their remap leaves from ``remaps``, the plan's packed
        records for them.  This binder does three things: it binds the
        tree's operands, the map's tags and update, the plan's lookup, the
        leaf stream and the hold once for the request; it hands ``serve``
        (``oram/_write_back.c``) the ids and remaps as buffers; and it folds
        the counts the kernel left in its int64 ``state`` into the counter
        with one ``add_bulk`` in a ``finally``.

        The kernel mirrors the per-object reference client's
        ``access_superblock`` (``tests/oracle/laoram.py``) decision for
        decision on the stash's dict (id -> leaf, insertion ordered as the
        reference stash is, so every write-back tie-break is the same), and
        on a one-id bin the reference engine's per-access ``access``.  Per
        bin: every distinct block's new leaf, in the bin's order (the plan's
        record, else the plan's ``consume_next_leaf``, else, ``-1`` or no
        plan, the stream's next leaf); in Path ORAM's order, each missing
        block's update, which returns the path the block sits on, fetched
        unless the bin read it already, so each distinct path is read once
        in first-encounter order; the stash hits' updates, free of traffic
        but for their walks; each path read written back, path by path; the
        occupancy-triggered eviction; the stash peak and history.  The dense
        map is swapped in place; a recursive map's ``update`` is called
        back, so its walk stays Python.  An empty bin reads and counts
        nothing on its way to the eviction loop and runs that loop's body
        once: a path of the stream's next leaf read and written back, with
        no episode counted and no stash observation.  The stream's
        prefetched block (``_leaf_buf``) gives the fallback remaps and the
        dummy reads their leaves, in the order the reference engines' scalar
        draws come, and is refilled in place with one ``integers`` call of
        ``LEAF_DRAW_BLOCK`` leaves.

        While :meth:`~repro.oram.base.ObliviousMemory.hold_many`'s read
        request runs, a bin stops after its updates: its read paths join
        ``self._held_paths`` and its blocks, the path's others with them,
        stay in the stash, with no write-back, no eviction and no stash
        observation.  A later bin of the step finds them there as stash
        hits.  The commit bin (run by :meth:`commit`, or by a hold that
        raised) writes those paths back in read order (``held_write_back``),
        so each held block goes back with the path it came from, and then
        ends as a counted bin: the eviction check and the stash observation.
        No other kernel call starts while a hold is open.

        A bin is counted once its ids passed the range check, so a
        rejected id is no access.  The kernel keeps ``state`` current, so a
        raise mid-request leaves the cursor, the leaf buffer's position and
        the counts of what was served stored, and the engine consistent and
        able to serve the next call: the capacity check runs after a path's
        blocks entered the stash, under the map's labels, and a block not
        yet updated still sits where the map says, so an overflow loses
        nothing.  A raise also drops the plan — the plan counts the whole of
        the request's records as handed out when only some were, and its
        lookups would no longer be the reference client's — so later remaps
        draw uniformly.
        """
        self._check_no_hold()
        counter = self.counter
        tree = self.tree
        plan = self._plan
        eviction = self.eviction
        capacity = self.stash.capacity
        tags, update = self.position_map.leaf_access()
        state = np.array(
            [self._trace_cursor, self._leaf_buf_pos, counter.stash_peak, 0, 0, 0, 0, 0, 0],
            dtype=np.int64,
        )
        try:
            serve(
                self.stash.entries, tree.bucket_capacities, tree.level_base,
                self._node_base, tree.slot_view, tree.occupancy_view, self._depth,
                tags, update, block_ids, size, remaps, by_position,
                None if plan is None else plan.consume_next_leaf,
                self.rng.integers, self._leaf_buf,
                (
                    self.config.num_blocks, self._num_leaves,
                    -1 if capacity is None else capacity, int(eviction.enabled),
                    eviction.trigger_threshold, eviction.drain_target,
                    eviction.max_dummy_reads_per_episode,
                ),
                self._held_paths, self._holding, self.observer,
                counter.stash_history if counter.record_stash_history else None,
                state,
            )
        except BaseException:
            self._plan = None
            raise
        finally:
            (
                self._trace_cursor, self._leaf_buf_pos, stash_peak, logical,
                path_reads, path_writes, dummy_reads, episodes, hits,
            ) = state.tolist()
            # One tree has one path geometry: buckets and bytes are the path
            # counts multiplied out.
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
