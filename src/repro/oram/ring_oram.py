"""RingORAM (Ren et al.) — the bandwidth-optimised comparator of Section VIII-G.

RingORAM reduces online bandwidth by reading a single block from every bucket
on the accessed path (the target block where present, a fresh dummy
otherwise) instead of the whole bucket.  Buckets are reshuffled after their
dummies are exhausted, and a full evict-path is performed every ``evict_rate``
accesses following the reverse-lexicographic leaf order.

This is a faithful-but-simplified model: XOR-compression of the online read
and the exact metadata layout of the original paper are abstracted away, but
the quantities the comparison cares about — blocks moved per access, eviction
frequency, stash behaviour — follow the protocol.

The protocol lives in :class:`RingProtocolMixin`, written against the
storage hooks of :class:`~repro.oram.engine.TreeORAMEngine`, so the same
control flow runs on both backends: :class:`RingORAM` (per-object reference)
and :class:`ArrayRingORAM` (vectorized twin, bit-identical counters for a
fixed seed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.memory.accounting import TrafficCounter
from repro.memory.timing import TimingModel
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.engine import ArrayStorageEngine, ObjectStorageEngine
from repro.oram.write_back import fused_fetch, fused_greedy_write_back

#: How a bucket's reads since its last reshuffle are counted; a count never
#: exceeds ``dummies_per_bucket``, which this bounds.
READ_COUNT_DTYPE = np.dtype(np.uint8)
#: Largest dummy budget per bucket a read count holds.
MAX_DUMMIES_PER_BUCKET = int(np.iinfo(READ_COUNT_DTYPE).max)


def reverse_lexicographic_leaf(counter: int, depth: int) -> int:
    """Leaf visited at eviction number ``counter`` in reverse-lexicographic order."""
    leaf = 0
    value = counter % (1 << depth)
    for bit in range(depth):
        leaf |= ((value >> bit) & 1) << (depth - 1 - bit)
    return leaf


class RingProtocolMixin:
    """RingORAM control flow over the shared engine's storage hooks.

    The mixin owns every protocol decision — online single-block reads,
    the per-bucket dummy budget, scheduled reverse-lexicographic evictions —
    and all counter/timing charges.  Storage backends only move blocks, so
    the per-object and array engines are decision-identical by construction.
    """

    def __init__(
        self,
        config: ORAMConfig,
        dummies_per_bucket: int = 4,
        evict_rate: int = 4,
        timing: Optional[TimingModel] = None,
        counter: Optional[TrafficCounter] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
    ):
        if dummies_per_bucket < 1:
            raise ConfigurationError("dummies_per_bucket must be >= 1")
        if dummies_per_bucket > MAX_DUMMIES_PER_BUCKET:
            raise ConfigurationError(
                f"dummies_per_bucket {dummies_per_bucket} exceeds "
                f"{MAX_DUMMIES_PER_BUCKET}: a bucket's reads are counted in "
                f"{READ_COUNT_DTYPE.name}"
            )
        if evict_rate < 1:
            raise ConfigurationError("evict_rate must be >= 1")
        self.dummies_per_bucket = dummies_per_bucket
        self.evict_rate = evict_rate
        super().__init__(
            config,
            timing=timing,
            counter=counter,
            rng=rng,
            observer=observer,
        )
        # Number of single-block reads a bucket has served since its last
        # reshuffle; once it reaches ``dummies_per_bucket`` the bucket must be
        # reshuffled (read and rewritten in full).
        self._bucket_read_counts = np.zeros(
            self.tree.num_buckets, dtype=READ_COUNT_DTYPE
        )
        self._access_count = 0
        self._evict_counter = 0

    # ------------------------------------------------------------------
    @property
    def server_memory_bytes(self) -> int:
        # Ring buckets carry extra dummy slots compared to the PathORAM tree.
        extra_slots = self.tree.num_buckets * self.dummies_per_bucket
        return self.tree.server_memory_bytes + extra_slots * self.tree.stored_block_bytes

    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Perform one RingORAM access (online read + scheduled evictions)."""
        self._check_block_id(block_id)
        self.counter.record_logical_access()
        self.timing.charge_client_overhead()

        handle = self._stash_detach(block_id)
        leaf = self.position_map.get(block_id)
        # oblivious: allow[OBL001] both arms issue byte-identical online reads
        # — the branch only selects which block is removed; this is RingORAM's
        # real/dummy read indistinguishability
        if handle is None:
            handle = self._online_read(leaf, block_id)
        else:
            self._online_read(leaf, None)

        payload = self._serve(handle, op, new_payload)

        new_leaf = self._draw_leaf()
        self.position_map.set(block_id, new_leaf)
        self._stash_insert(handle, new_leaf)

        self._access_count += 1
        if self._access_count % self.evict_rate == 0:
            self._evict_path()
        self._reshuffle_exhausted_buckets(leaf)
        self.counter.observe_stash(len(self.stash))
        return payload

    # ------------------------------------------------------------------
    def _online_read(self, leaf: int, block_id: Optional[int]):
        """Read one block per bucket along the path; return the target if found.

        A dummy online read (``block_id is None``) touches exactly the same
        number of buckets and moves exactly the same number of bytes as a
        real one — the indistinguishability RingORAM's security relies on.
        """
        found = None
        # oblivious: allow[OBL001] dummy and real online reads move identical
        # buckets and bytes (see docstring); only the removed block differs
        if block_id is not None:
            found = self._remove_from_path(leaf, block_id)
        indices = self.tree.path_bucket_indices(leaf)
        self._bucket_read_counts[indices] += 1
        num_buckets = self.tree.depth + 1
        num_bytes = num_buckets * self.tree.stored_block_bytes
        self.counter.record_path_read(num_buckets, num_bytes, dummy=block_id is None)
        self.timing.charge_path_transfer(num_buckets, num_bytes)
        if self.observer is not None:
            self.observer.observe_path(leaf, dummy=block_id is None)
        # oblivious: allow[OBL001] integrity check; aborts the run loudly
        if block_id is not None and found is None:
            raise BlockNotFoundError(f"block {block_id} missing from its path")
        return found

    def _reshuffle_exhausted_buckets(self, leaf: int) -> None:
        """Reshuffle buckets on the accessed path that ran out of dummies."""
        indices = np.asarray(self.tree.path_bucket_indices(leaf), dtype=np.int64)
        exhausted = indices[
            self._bucket_read_counts[indices] >= self.dummies_per_bucket
        ]
        for index in exhausted.tolist():
            slot_bytes = self._reshuffle_bytes((index + 1).bit_length() - 1)
            # A reshuffle reads and rewrites the whole bucket; contents stay
            # in place, only dummies are refreshed.
            self.counter.record_path_read(1, slot_bytes, dummy=True)
            self.counter.record_path_write(1, slot_bytes)
            self.timing.charge_path_transfer(1, 2 * slot_bytes)
            self._bucket_read_counts[index] = 0

    def _reshuffle_bytes(self, level: int) -> int:
        """Bytes of one bucket at ``level``, real and dummy slots together."""
        return (
            self.tree.capacity_at_level(level) + self.dummies_per_bucket
        ) * self.tree.stored_block_bytes

    def _evict_path(self) -> None:
        """Full read-and-rewrite of one path in reverse-lexicographic order."""
        leaf = reverse_lexicographic_leaf(self._evict_counter, self.tree.depth)
        self._evict_counter += 1
        num_buckets, num_bytes = self.tree.path_cost(leaf)
        # Charged before the stash takes the path, as the fused driver does.
        self.counter.record_path_read(num_buckets, num_bytes, dummy=True)
        self.timing.charge_path_transfer(num_buckets, num_bytes)
        self._fetch_path(leaf)

        self._commit_write_back(leaf)
        self.counter.record_path_write(num_buckets, num_bytes)
        self.timing.charge_path_transfer(num_buckets, num_bytes)
        self._bucket_read_counts[self.tree.path_bucket_indices(leaf)] = 0


class RingORAM(RingProtocolMixin, ObjectStorageEngine):
    """Simplified RingORAM client and server model (per-object reference)."""


class ArrayRingORAM(RingProtocolMixin, ArrayStorageEngine):
    """Vectorized RingORAM twin: slot-array buckets with shared control flow.

    Online reads gather the whole path's slots in one vectorized compare
    (:meth:`~repro.oram.tree.ArrayTreeStorage.remove_on_path`), evictions
    reuse the array engine's write-back kernel, and per-bucket read counts
    live in one numpy vector — while drawing from the
    RNG in exactly the per-object order, so a fixed seed gives bit-identical
    traffic counters.

    :meth:`run_trace` fuses the whole protocol — online reads, scheduled
    reverse-lexicographic evictions, bucket reshuffles — into one loop over
    the stash's dict with deferred counts, the same discipline as
    :meth:`ArrayStorageEngine._run_trace_fused`.
    """

    def run_trace(
        self,
        block_ids,
        ops=None,
        payloads=None,
    ):
        """Fused RingORAM trace driver (sequential semantics)."""
        if not self._fused_eligible(RingProtocolMixin.access):
            return ObliviousMemory.run_trace(self, block_ids, ops, payloads)
        return self._run_trace_ring_fused(block_ids, ops, payloads)

    def _run_trace_ring_fused(
        self,
        block_ids,
        ops=None,
        payloads=None,
    ):
        """One-loop RingORAM execution over the stash's dict.

        Decision-identical to the per-access protocol: detach moves the
        target out of the stash, a scheduled evict-path empties the path
        before its write-back (so the shared zero-occupancy write-back
        helper applies), and reshuffle checks run against the same bucket
        read counts in the same order.  The loop counts events per
        transfer class — online reads, evict-paths, reshuffles per level —
        and the exit multiplies them out into counters and clock.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        n = len(ids)
        op_seq, payload_seq = self._normalize_trace_args(n, ops, payloads)
        results = [None] * n

        WRITE = AccessOp.WRITE
        num_blocks = self.config.num_blocks
        num_leaves = self._num_leaves
        tree = self.tree
        stash = self.stash
        counter = self.counter
        observer = self.observer
        capacity = stash.capacity
        depth = self._depth
        evict_rate = self.evict_rate
        dummies_per_bucket = self.dummies_per_bucket
        read_counts = self._bucket_read_counts
        rc_item = read_counts.item
        counts_scratch = np.empty(self._depth + 1, dtype=read_counts.dtype)

        tags, get_leaf, set_leaf = self.position_map.leaf_access()
        payload_get = self._payloads.get
        payload_set = self._payloads.__setitem__
        slots = tree.slot_view
        occ = tree.occupancy_view
        caps = tree.bucket_capacities
        level_base = tree.level_base
        node_base = self._node_base
        groups = self._level_groups
        read_ids = tree.read_path_ids
        path_nodes = tree.path_nodes
        remove_on_path = tree.remove_on_path
        fetch = fused_fetch
        write_back = fused_greedy_write_back

        rng_integers = self.rng.integers
        draw_block = self.LEAF_DRAW_BLOCK or 512
        leaf_buf = self._leaf_buf
        leaf_pos = self._leaf_buf_pos
        access_count = self._access_count
        evict_counter = self._evict_counter

        stash_map = stash.entries

        # Deferred counts: online reads by kind, evict-path halves, and
        # reshuffles per tree level (bucket size, so the transfer class, is
        # per level).
        logical = real_online = dummy_online = evict_reads = evict_writes = 0
        reshuffles = [0] * (depth + 1)
        stash_peak = counter.stash_peak
        history = counter.stash_history if counter.record_stash_history else None

        try:
            for index in range(n):
                block_id = ids[index]
                # oblivious: allow[OBL001] bounds check against the public
                # num_blocks; invalid ids abort the run loudly
                if block_id < 0 or block_id >= num_blocks:
                    raise BlockNotFoundError(
                        f"block {block_id} outside [0, {num_blocks})"
                    )
                logical += 1

                stashed = block_id in stash_map
                # oblivious: allow[OBL001] client-side stash detach; the online
                # read below is byte-identical on both arms (RingORAM's
                # real/dummy indistinguishability)
                if stashed:
                    del stash_map[block_id]
                leaf = get_leaf(block_id)

                # Online read: one block per bucket on the path.
                # oblivious: allow[OBL001] selects which block is removed; the
                # read shape is identical either way (see above)
                found = True if stashed else remove_on_path(leaf, block_id)
                nodes = path_nodes(leaf)
                # One gather/add/scatter through the counts scratch both
                # bumps the path's read counts and yields the post-bump
                # values the reshuffle check needs — half the fancy-index
                # passes of a ``+= 1`` followed by a separate ``take``.
                read_counts.take(nodes, out=counts_scratch)
                counts_scratch += 1
                read_counts[nodes] = counts_scratch
                nodes_list = None
                # oblivious: allow[OBL001] dummy/real tally split for the
                # accounting mirror; buckets and bytes charged identically
                if stashed:
                    dummy_online += 1
                else:
                    real_online += 1
                if observer is not None:
                    observer.observe_path(leaf, dummy=stashed)
                # oblivious: allow[OBL001] integrity check; aborts the run
                if not found:
                    raise BlockNotFoundError(
                        f"block {block_id} missing from its path"
                    )

                if op_seq is not None and op_seq[index] is WRITE:
                    payload = payload_seq[index]
                    payload_set(block_id, payload)
                    results[index] = payload
                else:
                    results[index] = payload_get(block_id)

                if leaf_pos == len(leaf_buf):
                    leaf_buf = rng_integers(0, num_leaves, size=draw_block).tolist()
                    leaf_pos = 0
                new_leaf = leaf_buf[leaf_pos]
                leaf_pos += 1
                set_leaf(block_id, new_leaf)
                stash_map[block_id] = new_leaf
                # oblivious: allow[OBL001] stash-capacity check: overflow is
                # the protocol's stated failure event and aborts the run
                if capacity is not None and len(stash_map) > capacity:
                    raise StashOverflowError(
                        f"stash exceeded its capacity of {capacity} blocks"
                    )

                access_count += 1
                if access_count % evict_rate == 0:
                    # The evict fetch reuses the tree's path scratches, so
                    # materialise the accessed path's node ids first.
                    nodes_list = nodes.tolist()
                    evict_leaf = reverse_lexicographic_leaf(evict_counter, depth)
                    evict_counter += 1
                    fetch(read_ids, tags, stash_map, evict_leaf)
                    evict_reads += 1
                    # oblivious: allow[OBL001] stash-capacity check: overflow
                    # aborts the run loudly
                    if capacity is not None and len(stash_map) > capacity:
                        raise StashOverflowError(
                            f"stash exceeded its capacity of {capacity} blocks"
                        )
                    write_back(
                        stash_map,
                        groups,
                        caps,
                        level_base,
                        node_base,
                        slots,
                        occ,
                        depth,
                        evict_leaf,
                    )
                    evict_writes += 1
                    read_counts[path_nodes(evict_leaf)] = 0

                # Reshuffle any bucket on the accessed path whose dummies
                # ran out (post-eviction counts, as in the live protocol).
                # On non-evict accesses the post-bump counts scratch is
                # still current, and one vectorized max gates the level
                # scan — most accesses leave every bucket below threshold,
                # so they skip the scan (and its tolist) entirely.  An
                # eviction may have zeroed nodes the two paths share (the
                # root always), so evict accesses recompute per node from
                # the list materialised before the scratch was reused.
                if nodes_list is not None:
                    # oblivious: allow[ALLOC001] runs only on eviction accesses
                    # (1 in evict_rate); this amortized depth+1 list is inside
                    # the tracemalloc budget measured by tests/test_fused_trace
                    counts_list = [rc_item(node) for node in nodes_list]
                elif counts_scratch.max() >= dummies_per_bucket:
                    counts_list = counts_scratch.tolist()
                else:
                    counts_list = None
                if counts_list is not None:
                    for level, count in enumerate(counts_list):
                        if count >= dummies_per_bucket:
                            reshuffles[level] += 1
                            node = (
                                nodes.item(level)
                                if nodes_list is None
                                else nodes_list[level]
                            )
                            read_counts[node] = 0

                occupancy = len(stash_map)
                # oblivious: allow[OBL001] client-side metrics (stash peak
                # tracking); no server traffic
                if occupancy > stash_peak:
                    stash_peak = occupancy
                if history is not None:
                    history.append(occupancy)
        finally:
            self._leaf_buf = leaf_buf
            self._leaf_buf_pos = leaf_pos
            self._access_count = access_count
            self._evict_counter = evict_counter
            # Evict-paths move whole paths: the shared flush.
            self._flush_counts(logical, 0, evict_writes, evict_reads, stash_peak)
            # What only RingORAM has: one block per bucket online, and a
            # reshuffled bucket read and rewritten in one transfer.
            online = real_online + dummy_online
            online_buckets = depth + 1
            online_bytes = online_buckets * tree.stored_block_bytes
            shuffled = sum(reshuffles)
            shuffled_bytes = 0
            timing = self.timing
            if online:
                timing.charge_path_transfer(online_buckets, online_bytes, online)
            for level, count in enumerate(reshuffles):
                if count:
                    slot_bytes = self._reshuffle_bytes(level)
                    shuffled_bytes += count * slot_bytes
                    timing.charge_path_transfer(1, 2 * slot_bytes, count)
            counter.add_bulk(
                0,
                real_online,
                shuffled,
                dummy_online + shuffled,
                online * online_buckets + shuffled,
                shuffled,
                online * online_bytes + shuffled_bytes,
                shuffled_bytes,
            )
        return results
