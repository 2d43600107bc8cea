"""Binary-tree server storage for Path-ORAM style schemes.

Supports both the uniform-bucket ("normal") tree and the fat-tree
organisation of the paper, where bucket capacity grows from the leaves to
the root.  Byte accounting always charges full bucket capacity (real plus
dummy slots) because the server must transfer indistinguishable buckets.

:class:`ArrayTreeStorage` keeps one flat :data:`SLOT_DTYPE` slot array
plus one :data:`OCC_DTYPE` occupancy counter per bucket, so the initial
bulk placement is numpy operations, and the C request kernel and recursion
walk (:mod:`repro.oram.write_back`: their path read and every write-back)
index the same buffers without per-block objects.  The per-object reference tree
the tests hold it to (``tests/oracle/tree.py``) has the same geometry,
with list buckets.

Width.  The array tree is the largest host structure of every array engine,
so it is stored at the width its values need: a slot holds a block id or
``-1`` in four bytes, an occupancy counts at most :data:`MAX_BUCKET_CAPACITY`
blocks in one byte.  The kernels read and write the buffers through
memoryviews (:attr:`ArrayTreeStorage.slot_view`,
:attr:`ArrayTreeStorage.occupancy_view`), which also hand out Python ints,
so no Python caller's arithmetic wraps; vector work widens its own operands.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError

#: How a slot stores a block id; ``-1`` marks an empty (dummy) slot.
SLOT_DTYPE = np.dtype(np.int32)
#: Largest block count an array tree stores ids of.
MAX_NUM_BLOCKS = int(np.iinfo(SLOT_DTYPE).max)
#: How a bucket's occupancy is counted.
OCC_DTYPE = np.dtype(np.uint8)
#: Largest bucket capacity an occupancy counter holds.
MAX_BUCKET_CAPACITY = int(np.iinfo(OCC_DTYPE).max)
#: Sequence positions one bulk-placement pass sorts: bounds its temporaries
#: (a few ``int64`` arrays this long) whatever the number of blocks placed.
PLACE_CHUNK = 1 << 16


class ArrayTreeStorage:
    """Array-backed complete binary tree of buckets.

    All slots live in one flat :data:`SLOT_DTYPE` array (``-1`` marks a
    dummy slot) laid out level by level, node by node, plus one
    :data:`OCC_DTYPE` occupancy counter per node; slots ``0..occ-1`` of a
    node hold real blocks in insertion order, matching the list order of the
    per-object reference tree's buckets; slots past ``occ`` hold ``-1``.
    Only ids are stored: a block's leaf is authoritative in the position
    map, and the vectorized engine keeps payloads in a client-side store.
    Every tree, uniform or fat, main tree or recursion level, reads a path
    with the kernel's one C path read over its buffers and holds no
    per-path tables.
    """

    def __init__(
        self,
        depth: int,
        bucket_capacities: Sequence[int],
        block_size_bytes: int,
        metadata_bytes_per_block: int = 16,
    ):
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if len(bucket_capacities) != depth + 1:
            raise ConfigurationError(
                f"need {depth + 1} per-level capacities, got {len(bucket_capacities)}"
            )
        if block_size_bytes < 1:
            raise ConfigurationError("block_size_bytes must be >= 1")
        self.depth = depth
        self.bucket_capacities = tuple(int(c) for c in bucket_capacities)
        if max(self.bucket_capacities) > MAX_BUCKET_CAPACITY:
            raise ConfigurationError(
                f"bucket capacity {max(self.bucket_capacities)} exceeds "
                f"{MAX_BUCKET_CAPACITY}: an occupancy is counted in "
                f"{OCC_DTYPE.name}"
            )
        self.block_size_bytes = block_size_bytes
        self.metadata_bytes_per_block = metadata_bytes_per_block
        caps = self.bucket_capacities
        # Slot-region start of each level within the flat slot array.
        bases = [0]
        for level, capacity in enumerate(caps):
            bases.append(bases[-1] + (1 << level) * capacity)
        self._level_base = tuple(bases[:-1])
        self._slots = np.full(bases[-1], -1, dtype=SLOT_DTYPE)
        self._occ = np.zeros((1 << (depth + 1)) - 1, dtype=OCC_DTYPE)
        # The kernels' handles on the same buffers: memoryview items are
        # Python ints and cost no numpy scalar per read or write.
        self._slot_view = memoryview(self._slots)
        self._occ_view = memoryview(self._occ)
        #: ``(num_buckets, num_bytes)`` for transferring one full path: every
        #: path has the same geometry, so its transfer cost is fixed.
        self.path_cost = (
            depth + 1,
            sum(caps) * (block_size_bytes + metadata_bytes_per_block),
        )

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        """Number of leaves (paths)."""
        return 1 << self.depth

    @property
    def num_buckets(self) -> int:
        """Total number of buckets."""
        return (1 << (self.depth + 1)) - 1

    @property
    def stored_block_bytes(self) -> int:
        """Bytes one slot occupies on the wire (payload + metadata)."""
        return self.block_size_bytes + self.metadata_bytes_per_block

    @property
    def total_slots(self) -> int:
        """Total number of slots (real + dummy) in the tree."""
        return sum(
            capacity * (1 << level)
            for level, capacity in enumerate(self.bucket_capacities)
        )

    @property
    def server_memory_bytes(self) -> int:
        """Total server footprint of the tree."""
        return self.total_slots * self.stored_block_bytes

    # ------------------------------------------------------------------
    # Path operations
    # ------------------------------------------------------------------
    @property
    def level_base(self) -> tuple[int, ...]:
        """Flat-slot start offset of each level's region."""
        return self._level_base

    @property
    def bucket_occupancies(self) -> np.ndarray:
        """Per-bucket occupancy counters, breadth-first (no copy).

        Updated together with :attr:`slot_array`, keeping slots and
        counters in sync; the kernels go through :attr:`occupancy_view`.
        """
        return self._occ

    @property
    def occupancy_view(self) -> memoryview:
        """:attr:`bucket_occupancies` as a memoryview, for the kernels.

        Items read as Python ints (never a wrapping ``uint8`` scalar), and a
        write outside ``0..255`` raises instead of wrapping.
        """
        return self._occ_view

    def remove_many(self, block_ids: np.ndarray, leaves: np.ndarray) -> None:
        """Remove each of ``block_ids`` from its bucket on the path to ``leaves[i]``.

        Trusted-setup removal: a removed block's bucket keeps its other
        occupants in insertion order.  One pass per level over the blocks
        not located yet (leaf first, where a bulk-loaded tree keeps most of
        them), so no temporary exceeds ``len(block_ids) x bucket capacity``.  A block found nowhere
        on its path raises :class:`BlockNotFoundError` before anything is
        removed.
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        leaves = np.asarray(leaves, dtype=np.int64)
        pending = np.arange(block_ids.size, dtype=np.int64)
        hits = []
        for level in range(self.depth, -1, -1):
            if pending.size == 0:
                break
            nodes = leaves[pending] >> (self.depth - level)
            match = self._level_slots(level)[nodes] == block_ids[pending, None]
            found = match.any(axis=1)
            hits.append((level, nodes[found], match[found].argmax(axis=1)))
            pending = pending[~found]
        if pending.size:
            raise BlockNotFoundError(
                f"{pending.size} blocks (first: {int(block_ids[pending[0]])}) "
                "are not on the path they were looked for on"
            )
        for level, nodes, columns in hits:
            # Blank the victims, then shift each touched bucket's survivors
            # down over the gaps (stable: insertion order is kept).
            level_ids = self._level_slots(level)
            level_ids[nodes, columns] = -1
            touched = np.unique(nodes)
            buckets = level_ids[touched]
            empty = buckets < 0
            order = np.argsort(empty, axis=1, kind="stable")
            level_ids[touched] = np.take_along_axis(buckets, order, axis=1)
            self._level_occ(level)[touched] = (~empty).sum(axis=1)

    def try_place_id(self, block_id: int, leaf: int) -> bool:
        """Place ``block_id`` as deep as possible on its path; False if full.

        Scalar counterpart of :meth:`bulk_place`, and the reference tree's
        place-as-deep-as-possible rule on slot arrays.
        """
        for level in range(self.depth, -1, -1):
            capacity = self.bucket_capacities[level]
            node = leaf >> (self.depth - level)
            bucket = ((1 << level) - 1) + node
            occ = int(self._occ[bucket])
            if occ < capacity:
                self._slots[self._level_base[level] + node * capacity + occ] = block_id
                self._occ[bucket] = occ + 1
                return True
        return False

    @property
    def slot_array(self) -> np.ndarray:
        """The flat slot array (no copy).

        Writes must keep the occupied slots the dense prefix of each bucket
        and :attr:`bucket_occupancies` in sync.
        """
        return self._slots

    @property
    def slot_view(self) -> memoryview:
        """:attr:`slot_array` as a memoryview, for the kernels.

        Same buffer, same rules; items read and write as Python ints.
        """
        return self._slot_view

    # ------------------------------------------------------------------
    # Bulk operations / diagnostics
    # ------------------------------------------------------------------
    def bulk_place(self, position_leaves: np.ndarray) -> np.ndarray:
        """Greedily place blocks ``0..N-1`` as deep as possible, in id order.

        ``position_leaves[b]`` is block ``b``'s assigned path.  Returns the
        ids that found no free slot on their path (they belong in the
        stash), in ascending order.  Equivalent to calling
        :meth:`try_place_id` for every id in ascending order (see
        :meth:`bulk_place_ordered`, which this delegates to with
        ascending-id priority).
        """
        leaves = np.asarray(position_leaves)
        return self.bulk_place_ordered(
            np.arange(leaves.size, dtype=SLOT_DTYPE), leaves
        )

    def bulk_place_ordered(
        self, block_ids: np.ndarray, leaves: np.ndarray
    ) -> np.ndarray:
        """Greedily place ``block_ids`` as deep as possible, in sequence order.

        ``leaves[i]`` is ``block_ids[i]``'s assigned path; earlier sequence
        positions win contested slots.  Returns the ids that found no free
        slot on their path, in sequence order (``int64``).  Equivalent to
        calling :meth:`try_place_id` for every id in sequence order.  That
        loop is sequential, so it is run as consecutive chunks of
        :data:`PLACE_CHUNK` sequence positions, each placed by
        :meth:`_place_chunk` over the tree the chunks before it left: the
        temporaries are chunk-sized however many blocks are placed.
        """
        block_ids = np.asarray(block_ids)
        leaves = np.asarray(leaves)
        bits = min(block_ids.size, PLACE_CHUNK).bit_length()
        if self.depth + bits > 63:
            raise ConfigurationError(
                f"{block_ids.size} blocks on a depth-{self.depth} tree do not "
                "fit a 63-bit (node, position) sort key"
            )
        overflow = [np.empty(0, dtype=np.int64)]
        for start in range(0, block_ids.size, PLACE_CHUNK):
            stop = start + PLACE_CHUNK
            overflow.append(
                self._place_chunk(block_ids[start:stop], leaves[start:stop], bits)
            )
        return np.concatenate(overflow)

    def _place_chunk(
        self, block_ids: np.ndarray, leaves: np.ndarray, bits: int
    ) -> np.ndarray:
        """One chunk of :meth:`bulk_place_ordered`: one vectorized pass per level.

        At each level the surviving blocks are grouped by bucket and the
        first ``free`` (by priority) of each bucket claim their slots —
        placements at different levels never interact, so processing levels
        deep-to-root with priority preserved reproduces the scalar loop
        exactly.

        Grouping sorts one composite key per survivor, ``node << bits |
        position`` with ``bits`` wide enough for every sequence position of
        the chunk.  Keys are unique, so the default (unstable) sort orders
        them exactly as a stable sort by node would order the ascending
        positions, and each bucket is one run of equal ``key >> bits`` in
        the sorted keys.
        """
        block_ids = block_ids.astype(np.int64)
        # ``remaining`` holds sequence positions (the priority order) and
        # ``nodes`` each one's bucket at the level being filled.
        remaining = np.arange(block_ids.size, dtype=np.int64)
        nodes = leaves.astype(np.int64)
        for level in range(self.depth, -1, -1):
            if remaining.size == 0:
                break
            capacity = self.bucket_capacities[level]
            level_ids = self._level_slots(level).ravel()
            level_occ = self._level_occ(level)
            keys = (nodes << bits) | remaining
            keys.sort()
            sorted_nodes = keys >> bits
            sorted_pos = keys & ((1 << bits) - 1)
            first = np.empty(keys.size, dtype=bool)
            first[0] = True
            np.not_equal(sorted_nodes[1:], sorted_nodes[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            counts = np.diff(starts, append=keys.size)
            uniq = sorted_nodes[starts]
            held = level_occ[uniq]
            # A block's slot: behind its bucket's occupants, at its rank
            # within the bucket's run of the sorted keys.
            slot = np.arange(keys.size, dtype=np.int64) + np.repeat(
                held - starts, counts
            )
            placed = slot < capacity
            slot += sorted_nodes * capacity
            level_ids[slot[placed]] = block_ids[sorted_pos[placed]]
            level_occ[uniq] = np.minimum(held + counts, capacity)
            lost = ~placed
            remaining = sorted_pos[lost]
            nodes = sorted_nodes[lost] >> 1
        remaining.sort()
        return block_ids[remaining]

    def _level_slots(self, level: int) -> np.ndarray:
        """View of level ``level``'s slots shaped ``(nodes, capacity)``."""
        capacity = self.bucket_capacities[level]
        start = self._level_base[level]
        return self._slots[start : start + (1 << level) * capacity].reshape(
            1 << level, capacity
        )

    def _level_occ(self, level: int) -> np.ndarray:
        """View of level ``level``'s per-node occupancy counters."""
        return self._occ[(1 << level) - 1 : (1 << (level + 1)) - 1]

    def real_block_count(self) -> int:
        """Number of real blocks currently stored in the tree."""
        return int(self._occ.sum())
