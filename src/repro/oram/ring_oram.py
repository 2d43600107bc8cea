"""RingORAM (Ren et al.) — the bandwidth-optimised comparator of Section VIII-G.

RingORAM reduces online bandwidth by reading a single block from every bucket
on the accessed path (the target block where present, a fresh dummy
otherwise) instead of the whole bucket.  Buckets are reshuffled after their
dummies are exhausted, and a full evict-path is performed every ``evict_rate``
accesses following the reverse-lexicographic leaf order.

This is a faithful-but-simplified model: XOR-compression of the online read
and the exact metadata layout of the original paper are abstracted away, but
the quantities the comparison cares about — blocks moved per access, eviction
frequency, stash behaviour — follow the protocol.  A reshuffle is counted
as what it moves, a one-bucket dummy read and write, and as a reshuffle
(``TrafficCounter.record_reshuffle``), so the clock priced from the
counters takes it as one request.

The protocol lives in :class:`RingProtocolMixin`, written against the
storage hooks of :class:`~repro.oram.engine.TreeORAMEngine`, so the same
control flow runs on both backends: :class:`RingORAM` (per-object reference)
and :class:`ArrayRingORAM` (vectorized twin, bit-identical counters for a
fixed seed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.engine import ArrayStorageEngine, ObjectStorageEngine

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
    and every traffic count.  Storage backends only move blocks, so
    the per-object and array engines are decision-identical by construction.
    """

    def __init__(
        self,
        config: ORAMConfig,
        dummies_per_bucket: int = 4,
        evict_rate: int = 4,
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

        # Path ORAM's order: the new leaf is decided and installed by the
        # map access that reads the old one, before the online read.
        new_leaf = self._draw_leaf()
        leaf = self.position_map.update(block_id, new_leaf)
        handle = self._stash_detach(block_id)
        # oblivious: allow[OBL001] both arms issue byte-identical online reads
        # — the branch only selects which block is removed; this is RingORAM's
        # real/dummy read indistinguishability
        if handle is None:
            handle = self._online_read(leaf, block_id)
        else:
            self._online_read(leaf, None)

        payload = self._serve(handle, op, new_payload)
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
            # A reshuffle reads and rewrites the whole bucket; contents stay
            # in place, only dummies are refreshed.
            self.counter.record_reshuffle(
                self._reshuffle_bytes((index + 1).bit_length() - 1)
            )
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
        # Counted before the stash takes the path, as every path read is.
        self.counter.record_path_read(num_buckets, num_bytes, dummy=True)
        self._fetch_path(leaf)

        self._commit_write_back(leaf)
        self.counter.record_path_write(num_buckets, num_bytes)
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
    traffic counters.  A trace runs the generic per-access loop: RingORAM's
    ``access`` is its own, so the array engine's bin kernel does not apply.
    """
