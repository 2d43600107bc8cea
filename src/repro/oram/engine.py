"""Shared tree-ORAM engine core: one control flow, two storage backends.

Every tree-based scheme in this package (PathORAM, LAORAM) runs the same
skeleton — position-map lookup, path read into the stash, greedy
occupancy-aware write-back, threshold-triggered background eviction — over
one of two storage representations:

* :class:`ObjectStorageEngine` keeps :class:`~repro.memory.block.Block`
  objects in per-bucket lists and a dict stash (the reference engines);
* :class:`ArrayStorageEngine` keeps block ids in
  :class:`~repro.oram.tree.ArrayTreeStorage` slot arrays and an
  :class:`~repro.oram.stash.ArrayStash` (one ``{id: leaf}`` dict), with
  payloads in a client-side store (the vectorized engines).

:class:`TreeORAMEngine` owns the control flow and every traffic count;
backends implement a small set of storage hooks (``_fetch_path``,
``_commit_write_back``, stash lookup and relabel).  Because the hooks are
decision-free — every choice (which leaf, which eviction victim) is made in
shared code or replicated exactly by the write-back kernels of
:mod:`repro.oram.write_back`, which the array backend's hooks and its trace
kernel both call on the one stash dict — a reference engine and its array
twin draw from the RNG in the same order and produce bit-identical
:class:`~repro.memory.accounting.TrafficSnapshot` counters for a fixed seed.
That equivalence is enforced per family by
``tests/test_engine_equivalence.py``.  The counters are the engine's one
ledger: ``simulated_time_s`` is their price
(:data:`~repro.memory.timing.PAPER_TIMING`), never a tally of its own.

A trace runs one of two ways.  The generic loop
(:meth:`ObliviousMemory.run_trace`, one ``access`` per id) is the oracle,
and what the reference engines run.  The array backend's one kernel,
:meth:`ArrayStorageEngine._run_bins`, serves LAORAM's superblock bins and,
as one-id bins with no plan, every PathORAM trace: PathORAM is the
superblock of size one.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.block import Block
from repro.memory.timing import PAPER_TIMING
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy
from repro.oram.position_map import PositionMap
from repro.oram.row_store import load_rows, read_only
from repro.oram.stash import ArrayStash, Stash
from repro.oram.tree import MAX_NUM_BLOCKS, ArrayTreeStorage, TreeStorage
from repro.oram.write_back import (
    fused_fetch,
    fused_greedy_write_back,
    fused_shared_write_back,
    plan_greedy_write_back,
)
from repro.utils.rng import make_rng

#: One bin as a request is cut into them: trace index of its first access,
#: its ids in access order, and its precomputed remap leaves (``None``: ask
#: the plan, or the stream when there is none).
Bin = tuple[int, list[int], Optional[list[int]]]


class TreeORAMEngine(ObliviousMemory):
    """Tree-ORAM access/eviction control flow over abstract storage hooks.

    Subclasses provide the storage representation (tree, stash, payloads)
    through the hooks in the "storage hooks" section; the LAORAM clients
    add superblock bins on top of the shared internals
    (`_read_path_into_stash`, `_write_back`, background eviction, counters).
    """

    #: Leaf draws per vectorized RNG refill in :meth:`_draw_leaf`.  0 keeps
    #: scalar draws; the array backend prefetches in blocks.  A sized
    #: ``integers(0, n, size=k)`` call consumes the generator stream exactly
    #: like ``k`` scalar calls, so both settings yield the same leaf
    #: sequence for a seed.  Protocol code that wants several leaves at once
    #: (LAORAM's lookahead planner) takes them through :meth:`_draw_leaves`,
    #: which hands out the prefetched ones first, so they stay in stream order.
    LEAF_DRAW_BLOCK = 0

    def __init__(
        self,
        config: ORAMConfig,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
    ):
        self.config = config
        self.counter = counter if counter is not None else TrafficCounter()
        self.rng = rng if rng is not None else make_rng(config.seed)
        self.eviction = eviction if eviction is not None else EvictionPolicy(
            enabled=config.background_eviction,
            trigger_threshold=config.eviction_threshold,
            drain_target=config.eviction_target,
        )
        self.observer = observer
        self.tree = self._make_tree()
        self.stash = self._make_stash()
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
        # Buffered leaf draws (see _draw_leaf); an exhausted position on an
        # empty buffer forces the first refill.
        self._leaf_buf: list[int] = []
        self._leaf_buf_pos = 0
        # Hot-path caches: ``ORAMConfig.depth``/``num_leaves`` are derived
        # properties recomputed on every read, which adds up at millions of
        # accesses (geometry is immutable, so caching is safe).
        self._depth = config.depth
        self._num_leaves = config.num_leaves

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
        # oblivious: allow[OBL001] stash-hit fast path is the engine's modeled
        # behaviour: hits are counted, and callers needing uniform
        # traffic issue dummy_access explicitly (see docs/static_analysis.md)
        if handle is None:
            # Path ORAM's order: the new leaf is decided and installed by
            # the map access that reads the old one, before the path read;
            # the fetched block comes off the path under the new label.
            leaf = self.position_map.update(
                block_id, self._choose_new_leaf(block_id)
            )
            self._read_path_into_stash(leaf, dummy=False)
            handle = self._stash_lookup(block_id)
            # oblivious: allow[OBL001] integrity check; a missing block aborts
            # the whole simulation loudly rather than leaking via traffic
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

        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payload

    # ------------------------------------------------------------------
    # Shared internals (traffic is counted here, not in backends)
    # ------------------------------------------------------------------
    def _draw_leaf(self) -> int:
        """Draw one uniform leaf from the engine's RNG.

        With :data:`LEAF_DRAW_BLOCK` set, draws are prefetched in blocks via
        one vectorized ``integers`` call and handed out one at a time —
        hundreds of scalar generator calls collapse into one dispatch plus a
        list index.  The stream consumption is identical either way (see the
        class attribute), so blocked and scalar engines make the same
        decisions for a seed.
        """
        block = self.LEAF_DRAW_BLOCK
        if not block:
            return int(self.rng.integers(0, self._num_leaves))
        pos = self._leaf_buf_pos
        buf = self._leaf_buf
        if pos == len(buf):
            buf = self.rng.integers(0, self._num_leaves, size=block).tolist()
            self._leaf_buf = buf
            pos = 0
        self._leaf_buf_pos = pos + 1
        return buf[pos]

    def _draw_leaves(self, count: int) -> np.ndarray:
        """The next ``count`` uniform leaves of the stream :meth:`_draw_leaf` reads.

        The prefetched draws not yet handed out come first, then one
        ``integers`` call for the rest: on any :data:`LEAF_DRAW_BLOCK` the
        values and the generator's final state are those of ``count``
        scalar draws.
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

    def _choose_new_leaf(self, block_id: int) -> int:
        """Uniformly random new path; LAORAM overrides this with its plan."""
        return self._draw_leaf()

    def _read_path_into_stash(self, leaf: int, dummy: bool) -> None:
        """Fetch a full path from the server into the stash.

        The read is counted before the stash takes the path, so a fetch
        that overflows the stash is counted, as the kernel counts it.
        """
        num_buckets, num_bytes = self.tree.path_cost(leaf)
        self.counter.record_path_read(num_buckets, num_bytes, dummy=dummy)
        if self.observer is not None:
            self.observer.observe_path(leaf, dummy=dummy)
        self._fetch_path(leaf)

    def _write_back(self, leaf: int) -> None:
        """Greedily write stash blocks back onto the path to ``leaf``."""
        self._commit_write_back(leaf)
        num_buckets, num_bytes = self.tree.path_cost(leaf)
        self.counter.record_path_write(num_buckets, num_bytes)

    def _maybe_background_evict(self) -> None:
        """Run the dummy-read eviction loop when the stash is too full.

        Always single-path episodes, even after a multi-path superblock bin:
        a read-one-write-one dummy access drains the stash monotonically,
        whereas a grouped k-path episode floods the stash with every path's
        blocks before any write-back and — on deep trees, where random paths
        only share buckets near the root — leaves most of that flood behind,
        so the drain target recedes and every episode runs to the dummy cap.
        """
        # oblivious: allow[OBL001] occupancy-triggered background eviction is
        # the engine's documented policy; episodes are deliberately observable
        # (counted, priced, and studied by the multi-tenant experiments)
        if not self.eviction.should_trigger(len(self.stash)):
            return
        self.counter.record_background_eviction()
        dummy_reads = 0
        # oblivious: allow[OBL002] eviction episode length tracks occupancy by
        # design — same documented policy as the trigger above
        while self.eviction.should_continue(len(self.stash), dummy_reads):
            self.dummy_access()
            dummy_reads += 1

    def dummy_access(self) -> None:
        """Read and write back one random path without touching any block."""
        leaf = self._draw_leaf()
        self._read_path_into_stash(leaf, dummy=True)
        self._write_back(leaf)

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_real_blocks(self) -> int:
        """Blocks present across tree and stash (must equal ``num_blocks``)."""
        return self.tree.real_block_count() + len(self.stash)

    #: Client-side bookkeeping per stashed block, as the paper's client
    #: would hold it: the (id, leaf) pair the stash tracks alongside the
    #: payload, 8 bytes each (a modelled size, not that of the Python dict
    #: entry or ``Block`` attributes standing in for it).
    STASH_ENTRY_OVERHEAD_BYTES = 16

    def client_memory_bytes(self) -> int:
        """Client memory: position map (incl. recursion levels) plus stash.

        Stash entries are charged at ``block_size_bytes`` plus the id/leaf
        bookkeeping — *not* at ``stored_block_bytes``, whose
        ``metadata_bytes_per_block`` component (MACs) exists only on the
        server wire format and is never held by the client.  The position
        map term covers the dense array or, under ``recursive_posmap``,
        the recursion top map and per-level stash residue.
        """
        stash_bytes = len(self.stash) * (
            self.config.block_size_bytes + self.STASH_ENTRY_OVERHEAD_BYTES
        )
        return self.position_map.client_memory_bytes() + stash_bytes

    # ------------------------------------------------------------------
    # Storage hooks (implemented by the backends below)
    # ------------------------------------------------------------------
    def _make_tree(self):
        """Build the server-side tree storage for ``self.config``."""
        raise NotImplementedError

    def _make_stash(self):
        """Build the client-side stash."""
        raise NotImplementedError

    def _bulk_load(self) -> None:
        """Trusted-setup placement of every block onto its initial path."""
        raise NotImplementedError

    def load_payloads(self, payloads) -> None:
        """Install payloads during trusted setup (no traffic charged).

        ``payloads`` is a ``{block_id: payload}`` mapping, or a ``(rows,
        dim)`` array whose row ``i`` is block ``i``'s payload.  An array is
        lent read-only for the engine's lifetime: no engine copies it or
        writes into it.
        """
        raise NotImplementedError

    def _stash_lookup(self, block_id: int):
        """Handle of a stashed block (Block or id), or ``None`` if absent."""
        raise NotImplementedError

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        """Remap a *stashed* block: one position-map update, then its stash label."""
        raise NotImplementedError

    def _serve(self, handle, op: AccessOp, new_payload: Optional[object]):
        """Apply the read/write to a stashed block and return its payload."""
        raise NotImplementedError

    def _fetch_path(self, leaf: int) -> None:
        """Move every real block on the path to ``leaf`` into the stash.

        A fetched block takes the position map's label (the tag it carries
        on the wire), so a block whose update preceded the read arrives
        under its new leaf, and a raise leaves stash and map agreeing.
        """
        raise NotImplementedError

    def _commit_write_back(self, leaf: int) -> None:
        """Plan and commit the greedy write-back onto the path to ``leaf``."""
        raise NotImplementedError


class ObjectStorageEngine(TreeORAMEngine):
    """Per-object storage backend: Block objects, list buckets, dict stash."""

    def __init__(self, config: ORAMConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._bulk_load()

    # -- construction ---------------------------------------------------
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

    # -- stash hooks ----------------------------------------------------
    def _stash_lookup(self, block_id: int) -> Optional[Block]:
        return self.stash.get(block_id)

    def _stash_detach(self, block_id: int) -> Optional[Block]:
        """Remove a block from the stash, returning it (or ``None``)."""
        return self.stash.pop(block_id)

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        self.position_map.update(block_id, leaf)
        self.stash.get(block_id).leaf = leaf

    # -- access hooks ---------------------------------------------------
    def _serve(
        self, handle: Block, op: AccessOp, new_payload: Optional[object]
    ) -> Optional[object]:
        if op is AccessOp.WRITE:
            handle.payload = new_payload
        return handle.payload

    def _fetch_path(self, leaf: int) -> None:
        """The whole path lands in the stash, under the map's labels, before
        an overflow raises."""
        blocks = self.tree.read_path(leaf)
        tags = self.position_map.leaf_access()[0]
        for block in blocks:
            block.leaf = tags.item(block.block_id)
        self.stash.extend(blocks)

    def _commit_write_back(self, leaf: int) -> None:
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


class ArrayStorageEngine(TreeORAMEngine):
    """Array storage backend: id slot arrays, dict stash, client payload store.

    The handle for a stashed block is its integer id; payloads live in a
    client-side store (payload location never affects traffic, so keeping it
    out of the simulated server removes all per-block object churn from the
    hot path).  The store is a ``{block_id: payload}`` dict, or, once
    :meth:`load_payloads` was given a matrix, an
    :class:`~repro.oram.row_store.OverlayRowStore` over it: both answer
    ``get`` and item assignment.  The trace kernel (:meth:`_run_bins`)
    never touches it; its callers serve the payloads of what it got
    through.
    """

    #: The array backend prefetches leaf draws in blocks (see
    #: :meth:`TreeORAMEngine._draw_leaf`); stream-identical to scalar draws.
    LEAF_DRAW_BLOCK = 512

    def __init__(self, config: ORAMConfig, **kwargs):
        if config.num_blocks > MAX_NUM_BLOCKS:
            raise ConfigurationError(
                f"num_blocks {config.num_blocks} exceeds {MAX_NUM_BLOCKS}: a "
                "tree slot stores a block id in four bytes"
            )
        super().__init__(config, **kwargs)
        #: ``block_id -> payload``: a dict, or the row store of a loaded matrix.
        self._payloads = {}
        # What the write-back kernels take besides the tree's arrays: the
        # first bucket index of each level, and the per-level grouping
        # scratch they leave empty on return.
        self._node_base = [(1 << level) - 1 for level in range(self._depth + 1)]
        self._level_groups: list[list[int]] = [[] for _ in range(self._depth + 1)]
        self._bulk_load()

    # -- construction ---------------------------------------------------
    def _make_tree(self) -> ArrayTreeStorage:
        return ArrayTreeStorage(
            depth=self.config.depth,
            bucket_capacities=self.config.bucket_capacities(),
            block_size_bytes=self.config.block_size_bytes,
            metadata_bytes_per_block=self.config.metadata_bytes_per_block,
        )

    def _make_stash(self) -> ArrayStash:
        return ArrayStash(capacity=self.config.stash_capacity)

    def _bulk_load(self) -> None:
        """Place every block into the tree according to its initial path.

        Chunked vectorized passes over the map's own four-byte labels (no
        widened copy); overflow goes to the stash in ascending id order,
        exactly as the per-object bulk load does.
        """
        labels = self.position_map.leaf_access()[0][: self.config.num_blocks]
        overflow = self.tree.bulk_place(labels)
        self.stash.extend(overflow, labels[overflow])

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

    # -- stash hooks ----------------------------------------------------
    def _stash_lookup(self, block_id: int) -> Optional[int]:
        if block_id in self.stash:
            return block_id
        return None

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        self.position_map.update(block_id, leaf)
        self.stash.set_leaf(block_id, leaf)

    # -- access hooks ---------------------------------------------------
    def _serve(
        self, handle: int, op: AccessOp, new_payload: Optional[object]
    ) -> Optional[object]:
        if op is AccessOp.WRITE:
            self._payloads[handle] = new_payload
        return self._payloads.get(handle)

    def _fetch_path(self, leaf: int) -> None:
        """The kernel's path read, then the capacity check it makes after it.

        The path's blocks are in the stash before an overflow raises, so
        the engine still holds every block and can take another access.
        """
        stash = self.stash
        tags = self.position_map.leaf_access()[0]
        fused_fetch(self.tree.read_path_ids, tags, stash.entries, leaf)
        stash.check_capacity()

    # -- the trace kernel -----------------------------------------------
    #: The lookahead plan the kernel asks for remaps, and the trace index one
    #: past the last bin it served.  LAORAM clients keep both per instance;
    #: PathORAM has no plan and starts its cursor at 0 on every trace.
    _plan = None
    _trace_cursor = 0

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

    def _run_bins(self, bins: Iterable[Bin]) -> None:
        """Serve ``bins`` in order: the one place a bin, or a PathORAM trace, runs.

        Mirrors ``LAORAMClient.access_superblock`` decision for decision on
        the stash's dict (id -> leaf, insertion ordered as the reference
        stash is, so every write-back tie-break is the same).  Every
        distinct block's new leaf is decided first, in the bin's order — the
        bin's precomputed leaf, else what the plan hands out, else (``-1``
        or no plan) the next leaf of the engine's one stream.  Then, in Path
        ORAM's order, each missing block's ``update`` installs it and
        returns the path the block sits on, fetched unless the bin read it
        already, so each distinct path is read once in first-encounter
        order; the stash hits' updates follow, free of traffic but for
        their walks.  Each path read is written back, path by path.  A path
        its own fetch just emptied — a bin's first, every dummy read's —
        takes ``fused_greedy_write_back``; a later path of the bin finds the
        buckets it shares with an earlier one refilled and takes the
        occupancy-aware ``fused_shared_write_back``.  Background eviction
        runs inline.  A one-id bin (every PathORAM access) is its own
        distinct-id list, with no deduplication pass.

        The stream's prefetched block is bound as locals: the fallback
        remaps and the dummy reads take their leaves from it, in the order
        the reference engines' scalar draws come, and it is refilled with
        one ``integers`` call of ``LEAF_DRAW_BLOCK`` leaves.  Nothing here
        calls ``_draw_leaf`` or ``_planned_leaf``, which would hand out
        leaves the locals still hold.

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
        groups = self._level_groups
        occ = tree.occupancy_view
        read_ids = tree.read_path_ids
        fetch = fused_fetch
        write_fresh = fused_greedy_write_back
        write_shared = fused_shared_write_back

        stash_map = stash.entries

        # Deferred counts, flushed in the finally below.
        logical = path_reads = path_writes = dummy_reads = episodes = hits = 0
        stash_peak = counter.stash_peak
        history = counter.stash_history if counter.record_stash_history else None
        cursor = self._trace_cursor

        try:
            for start_index, block_ids, bin_remaps in bins:
                count = len(block_ids)
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
                        fetch(read_ids, tags, stash_map, leaf)
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

                # Path by path: the first was emptied by its fetch (the
                # bin's later fetches only empty more buckets); a later one
                # finds the buckets it shares with an earlier one refilled.
                write_back = write_fresh
                # oblivious: allow[OBL002] one write-back per path fetched
                # above: the same revealed count
                for leaf in read_leaves:
                    write_back(
                        stash_map, groups, caps, level_base, node_base,
                        slots, occ, depth, leaf,
                    )
                    write_back = write_shared
                    path_writes += 1

                cursor = end_index + 1
                occupancy = len(stash_map)
                # oblivious: allow[OBL001] fused replay of the documented
                # occupancy-triggered background eviction policy
                if should_trigger(occupancy):
                    episodes += 1
                    dummies = 0
                    # oblivious: allow[OBL002] episode length tracks occupancy
                    # by design — same documented policy as the trigger
                    while should_continue(occupancy, dummies):
                        if leaf_pos == len(leaf_buf):
                            leaf_buf = rng_integers(
                                0, num_leaves, size=draw_block
                            ).tolist()
                            leaf_pos = 0
                        leaf = leaf_buf[leaf_pos]
                        leaf_pos += 1
                        fetch(read_ids, tags, stash_map, leaf)
                        dummy_reads += 1
                        if observer is not None:
                            observer.observe_path(leaf, dummy=True)
                        # oblivious: allow[OBL001] stash-capacity check:
                        # overflow aborts the run loudly
                        if capacity is not None and len(stash_map) > capacity:
                            raise StashOverflowError(
                                f"stash exceeded its capacity of {capacity} blocks"
                            )
                        write_fresh(
                            stash_map, groups, caps, level_base, node_base,
                            slots, occ, depth, leaf,
                        )
                        path_writes += 1
                        dummies += 1
                        occupancy = len(stash_map)

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
            path_buckets, path_bytes = tree.path_cost(0)
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

    def _commit_write_back(self, leaf: int) -> None:
        """Greedy write-back onto the path to ``leaf``: the kernel's later-path one.

        The occupancy-aware one, as the reference hook's
        ``plan_greedy_write_back`` is: the hook does not promise a path
        that was just emptied, and on one that was (``access``,
        ``dummy_access``) it decides exactly what ``fused_greedy_write_back``
        decides.
        """
        tree = self.tree
        fused_shared_write_back(
            self.stash.entries,
            self._level_groups,
            tree.bucket_capacities,
            tree.level_base,
            self._node_base,
            tree.slot_view,
            tree.occupancy_view,
            self._depth,
            leaf,
        )
