"""Position map: block id -> assigned path, client-held or recursive.

PathORAM defines the position map recursively: leaf labels are packed
``positions_per_block`` (χ) to a block and stored in a *smaller* tree ORAM,
whose own position map recurses the same way, and the recursion ends at an
array small enough to keep in trusted client memory.  :class:`PositionMap`
is that definition.  With no ``cutoff_bytes`` budget the base case is
reached at once: no recursion level, and the map is the dense array of one
label per block the client holds (GPU HBM in the paper: 32–64 MB at its DLRM
scale of 8M–16M rows — the gap the recursion closes).

Label width.  A label names one of ``num_leaves`` ≤ 2^31 paths, so it is
stored — and charged — as :data:`LABEL_DTYPE`, four bytes, the width
PathORAM's recursion packs labels at.  Every byte figure follows from its
``itemsize`` (:data:`LABEL_BYTES`): a recursion block is ``χ · LABEL_BYTES``
of payload, a level is added while ``entries · LABEL_BYTES`` exceeds the
budget, and the client footprint is the ``nbytes`` of what the client holds.
Arrays that leave the class (:meth:`PositionMap.peek_many`,
:meth:`PositionMap.as_array`) are ``int64``, so no caller's arithmetic
narrows.

Geometry.  With ``n`` logical blocks, recursion level ``k`` (1-based)
holds ``m_k = ceil(m_{k-1} / χ)`` blocks (``m_0 = n``); level-``k`` block
``j`` packs the labels of level-``(k-1)`` blocks ``jχ .. jχ+χ-1`` (level 0
"blocks" are the logical ids, whose labels are main-tree leaves).  Levels
are added while the dense map of the previous level exceeds
``cutoff_bytes``; the labels of the final level's blocks form the dense
top map held in client memory.

Each recursion level is a real PathORAM instance in miniature: an
:class:`~repro.oram.tree.ArrayTreeStorage` with uniform bucket capacity,
a dict stash, and the classic read-remap-greedy-write-back access (no
background eviction — the greedy write-back after every miss keeps the
per-level stash at the usual O(log m) residue).

Traffic.  Every recursion path read/write is charged to the owning
engine's :class:`~repro.memory.accounting.TrafficCounter` under the
dedicated ``posmap_*`` category — paths, buckets and bytes, all the
engine's clock prices — keeping the main-tree counters directly comparable
between dense and recursive runs.
The protocol touches the map through one call, :meth:`PositionMap.update`:
one walk per update, in Path ORAM's order — the client decides a block's
new leaf, and the one access to the map returns the old leaf and installs
the new one before the block's path is read (Stefanov et al., CCS'13,
Fig. 1).  Every remap is one update, a stash-hit block's as much as a
fetched one's, so every remap is charged exactly one walk.  With no level
there is nothing to walk and nothing is charged.

Determinism.  The constructor draws the initial logical labels with one
RNG call whatever the level count, so an engine consumes its stream
identically dense or recursive and makes bit-identical decisions.
All recursion-internal label draws come from independent generators
spawned off the seed (:func:`repro.utils.rng.spawn_rngs`), never from the
engine stream; each level takes them :data:`DRAW_BLOCK` at a time, as the
array engines take the main tree's.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    IntegrityError,
)
from repro.memory.accounting import TrafficCounter
from repro.oram.tree import ArrayTreeStorage
from repro.oram.write_back import fetch, write_back
from repro.utils.bits import required_depth
from repro.utils.rng import spawn_rngs

#: How a leaf label is stored, packed into recursion blocks and charged.
LABEL_DTYPE = np.dtype(np.int32)
#: Bytes of one stored label; every byte figure of the map derives from it.
LABEL_BYTES = LABEL_DTYPE.itemsize
#: Largest tree whose labels fit :data:`LABEL_DTYPE`.
MAX_NUM_LEAVES = int(np.iinfo(LABEL_DTYPE).max) + 1
#: Fresh recursion labels drawn per vectorized RNG call, per level.
DRAW_BLOCK = 512


def _label_draws(rng: np.random.Generator, num_leaves: int):
    """Endless uniform labels from ``rng``, :data:`DRAW_BLOCK` to a call."""
    while True:
        yield from rng.integers(0, num_leaves, size=DRAW_BLOCK).tolist()


def _as_int_array(values, label: str) -> np.ndarray:
    """Coerce ``values`` to int64, rejecting non-integer inputs.

    ``np.asarray(values, dtype=np.int64)`` on float input silently
    truncates, so a fractional leaf or id would pass the range checks with
    a corrupted value; lists are validated through the same dtype
    inspection (``np.asarray`` without a dtype infers float for mixed or
    fractional content).
    """
    array = np.asarray(values)
    if array.dtype.kind in ("i", "u"):
        return array.astype(np.int64, copy=False)
    if array.size == 0:
        # An empty Python list infers float64; nothing to truncate.
        return np.empty(array.shape, dtype=np.int64)
    raise ConfigurationError(
        f"{label} must be an integer array, got dtype {array.dtype} "
        "(non-integer input would be silently truncated)"
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes (tags handed to drivers)."""
    view = array.view()
    view.flags.writeable = False
    return view


class _RecursionLevel:
    """One tree-ORAM level of the recursion (client + server state)."""

    __slots__ = (
        "tree",
        "stash",
        "labels",
        "draw",
        "num_leaves",
        "num_blocks",
        "path_buckets",
        "path_bytes",
        "depth",
        "read_stream",
    )

    def __init__(
        self,
        num_blocks: int,
        bucket_size: int,
        positions_per_block: int,
        metadata_bytes_per_block: int,
        rng: np.random.Generator,
        record_stream: bool,
    ):
        depth = required_depth(num_blocks)
        self.tree = ArrayTreeStorage(
            depth=depth,
            bucket_capacities=tuple(bucket_size for _ in range(depth + 1)),
            block_size_bytes=positions_per_block * LABEL_BYTES,
            metadata_bytes_per_block=metadata_bytes_per_block,
        )
        self.num_blocks = num_blocks
        self.num_leaves = self.tree.num_leaves
        self.depth = depth
        self.path_buckets, self.path_bytes = self.tree.path_cost
        # Server-side metadata mirror: a block's (id, leaf) tag travels with
        # it on the wire, so labels of path-fetched blocks are readable
        # without an oblivious lookup.  Not client memory.
        labels = rng.integers(0, self.num_leaves, size=num_blocks, dtype=np.int64)
        overflow = self.tree.bulk_place(labels)
        self.labels = labels.astype(LABEL_DTYPE)
        self.stash = {
            int(block): int(labels[block]) for block in overflow.tolist()
        }
        #: The next fresh label of one of this level's blocks.
        self.draw = _label_draws(rng, self.num_leaves).__next__
        #: Leaves of the paths read, when the map records its streams.
        self.read_stream: Optional[list[int]] = [] if record_stream else None


class PositionMap:
    """Maps every real block to the leaf (path) it is currently assigned to.

    The protocol's lookup-and-remap is :meth:`update`; ``peek`` / ``load``
    (and their ``_many`` forms) are the charge-free metadata and
    trusted-setup channel; the request kernel binds :meth:`leaf_access` once
    per call.  ``cutoff_bytes`` is the client-memory budget of the map:
    ``None`` keeps the whole array client-side (GPU HBM in the paper), where
    lookups are invisible to the adversary and free; a budget the array
    exceeds moves it into recursion ORAMs, leaving only the top map and the
    per-level stashes in client memory, and every :meth:`update` is a
    charged oblivious walk.
    """

    def __init__(
        self,
        num_blocks: int,
        num_leaves: int,
        rng: np.random.Generator,
        positions_per_block: int = 64,
        cutoff_bytes: Optional[int] = None,
        bucket_size: int = 4,
        metadata_bytes_per_block: int = 16,
        counter: Optional[TrafficCounter] = None,
        seed: int = 0,
        record_streams: bool = False,
    ):
        if num_blocks < 1:
            raise ConfigurationError("num_blocks must be >= 1")
        if num_leaves < 2:
            raise ConfigurationError("num_leaves must be >= 2")
        if num_leaves > MAX_NUM_LEAVES:
            raise ConfigurationError(
                f"num_leaves {num_leaves} exceeds {MAX_NUM_LEAVES}: a leaf "
                f"label is stored in {LABEL_BYTES} bytes ({LABEL_DTYPE.name})"
            )
        if bucket_size < 1:
            raise ConfigurationError("bucket_size must be >= 1")
        sizes = self.level_sizes(num_blocks, positions_per_block, cutoff_bytes)
        self._num_blocks = num_blocks
        self._num_leaves = num_leaves
        self._chi = positions_per_block
        self.counter = counter if counter is not None else TrafficCounter()

        # One draw whatever the level count, so an engine consumes its RNG
        # stream identically dense or recursive; drawn at the generator's
        # native width and narrowed, so the stream is the one an 8-byte
        # map drew.
        initial = rng.integers(0, num_leaves, size=num_blocks, dtype=np.int64)

        self._levels = [
            _RecursionLevel(
                num_blocks=size,
                bucket_size=bucket_size,
                positions_per_block=positions_per_block,
                metadata_bytes_per_block=metadata_bytes_per_block,
                rng=level_rng,
                record_stream=record_streams,
            )
            for size, level_rng in zip(sizes, spawn_rngs(seed, len(sizes)))
        ]
        # values[k] packs the labels of the level below, χ to a block and
        # padded to whole blocks (the pad cells are never addressed): the
        # logical labels for k = 0 — level 1's payload, or the whole dense
        # map — then each level's block labels, its parent's payload.
        values: list[np.ndarray] = []
        for labels, parent_size in zip(
            [initial] + [level.labels for level in self._levels], sizes
        ):
            packed = np.zeros(parent_size * positions_per_block, dtype=LABEL_DTYPE)
            packed[: labels.size] = labels
            values.append(packed)
        self._values = values or [initial.astype(LABEL_DTYPE)]
        self._entries = self._values[0]
        self._tags = _read_only(self._entries)
        self._leaf_access = (self._tags, self.update if sizes else self._entries)
        # Dense top map: labels of the last level's blocks (client memory).
        self._top = self._levels[-1].labels.copy() if sizes else self._entries
        # update's and the walk's handles on the entries and the top map:
        # memoryview items go in and out as Python ints, no numpy scalar.
        self._entries_view = memoryview(self._entries)
        self._top_view = memoryview(self._top)
        self._steps = self._bind_steps()

    @staticmethod
    def level_sizes(
        num_blocks: int, positions_per_block: int, cutoff_bytes: Optional[int]
    ) -> list[int]:
        """Blocks of each recursion level, level 1 first (``[]`` = dense).

        A level is added while the dense map of the one below — one
        :data:`LABEL_BYTES` label per entry — exceeds ``cutoff_bytes``.
        """
        if positions_per_block < 2:
            raise ConfigurationError("positions_per_block must be >= 2")
        if cutoff_bytes is None:
            return []
        if cutoff_bytes < LABEL_BYTES:
            raise ConfigurationError(
                f"cutoff_bytes must be >= {LABEL_BYTES}, the bytes of one "
                f"leaf label ({LABEL_DTYPE.name})"
            )
        sizes: list[int] = []
        entries = num_blocks
        while entries * LABEL_BYTES > cutoff_bytes and entries > 1:
            entries = -(-entries // positions_per_block)
            sizes.append(entries)
        return sizes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_blocks

    @property
    def num_leaves(self) -> int:
        """Number of distinct main-tree paths blocks can map to."""
        return self._num_leaves

    @property
    def num_levels(self) -> int:
        """Number of recursion tree levels (0 = the dense client-held map)."""
        return len(self._levels)

    @property
    def positions_per_block(self) -> int:
        """Labels packed per recursion block (χ)."""
        return self._chi

    @property
    def top_map_bytes(self) -> int:
        """Bytes of the dense map the client holds (the whole map if dense)."""
        return int(self._top.nbytes)

    def geometry(self) -> list[dict[str, int]]:
        """Per-level shape summary (docs, experiments, diagnostics)."""
        return [
            {
                "level": index + 1,
                "blocks": level.num_blocks,
                "tree_depth": level.depth,
                "label_bytes": LABEL_BYTES,
                "block_bytes": level.tree.stored_block_bytes,
                "path_bytes": level.path_bytes,
                "stash_blocks": len(level.stash),
            }
            for index, level in enumerate(self._levels)
        ]

    def client_memory_bytes(self) -> int:
        """Honest client footprint: the top map and the level stashes.

        A stash resident is its χ packed labels plus id / leaf bookkeeping.
        An update keeps no client state between calls.
        """
        residents = sum(len(level.stash) for level in self._levels)
        return self.top_map_bytes + residents * (self._chi * LABEL_BYTES + 16)

    def server_memory_bytes(self) -> int:
        """Server footprint of every recursion tree."""
        return sum(level.tree.server_memory_bytes for level in self._levels)

    # ------------------------------------------------------------------
    # The recursion walk
    # ------------------------------------------------------------------
    def _bind_steps(self) -> list[tuple]:
        """What :meth:`_walk` touches at each level, top level first.

        Bound once per map, in the order the walk unpacks: the level number
        and its span of logical ids; the packed labels, id span and draw of
        the level below (level 1's child is the logical map, which the
        engine draws for); the level's stash, labels and read stream; the
        operands of the C ``fetch`` and ``write_back`` (the shape the trace
        kernel binds; the fetch tags a block with the level's labels); the
        path cost both directions charge.  Labels, packed and level
        alike, are bound as memoryviews, read and written as Python ints.
        """
        levels = self._levels
        steps = []
        for k in range(len(levels), 0, -1):
            level = levels[k - 1]
            tree = level.tree
            depth = level.depth
            steps.append((
                k,
                self._chi**k,
                memoryview(self._values[k - 1]),
                self._chi ** (k - 1),
                levels[k - 2].draw if k > 1 else None,
                level.stash,
                memoryview(level.labels),
                level.read_stream,
                tree.bucket_capacities,
                tree.level_base,
                [(1 << node_level) - 1 for node_level in range(depth + 1)],
                tree.slot_view,
                tree.occupancy_view,
                depth,
                level.path_buckets,
                level.path_bytes,
            ))
        return steps

    def _walk(self, block_id: int) -> int:
        """One charged top-down recursion access; returns the old entry.

        At each level the block holding ``block_id``'s entry is fetched
        (path read unless it is a stash hit), remapped to the fresh label
        its parent already installed, has the child's label read and
        refreshed, and is greedily written back.  The level-1 child entry
        — ``block_id``'s main-tree leaf — is returned *without* refreshing
        it: the engine owns that draw, and :meth:`update` installs it.
        """
        steps = self._steps
        counter = self.counter
        record_read = counter.record_posmap_path_read
        record_write = counter.record_posmap_path_write

        top = self._top_view
        top_index = block_id // steps[0][1]
        leaf = top[top_index]
        fresh = self._levels[-1].draw()
        top[top_index] = fresh

        for (
            k, span, child_values, child_span, child_draw,
            stash, labels, read_stream,
            caps, level_base, node_base, slots, occ, depth,
            path_buckets, path_bytes,
        ) in steps:
            block = block_id // span
            hit = block in stash
            # oblivious: allow[OBL001] client-side stash-hit fast path, the
            # same modeled behaviour as the main engine's access(); misses
            # and hits both refresh the block's label
            if not hit:
                fetch(
                    stash, caps, level_base, node_base, slots, occ, depth,
                    labels, leaf,
                )
                record_read(path_buckets, path_bytes)
                if read_stream is not None:
                    read_stream.append(leaf)
                # oblivious: allow[OBL001] integrity check; aborts loudly
                if block not in stash:
                    raise IntegrityError(
                        f"recursion level {k} block {block} missing from "
                        f"both stash and path {leaf}"
                    )
            stash[block] = fresh
            labels[block] = fresh

            child = block_id // child_span
            next_leaf = child_values[child]
            # Level 1 ends the walk: the engine draws and installs the
            # logical label itself.
            if child_draw is not None:
                fresh = child_draw()
                child_values[child] = fresh
            # oblivious: allow[OBL001] write-back only follows a real path
            # read (stash hits moved no data), mirroring the main engine
            if not hit:
                write_back(
                    stash, caps, level_base, node_base, slots, occ, depth, leaf
                )
                record_write(path_buckets, path_bytes)
            leaf = next_leaf
        return leaf

    # ------------------------------------------------------------------
    # Charged interface
    # ------------------------------------------------------------------
    def update(self, block_id: int, leaf: int) -> int:
        """Reassign ``block_id`` to ``leaf``; returns the leaf it replaces.

        Path ORAM's position-map access: the caller decided the new leaf
        before it reads the block's path, and this one access reads the old
        label and installs the new one.  Under recursion that is one charged
        walk per update, a stash-hit block's remap as much as a fetched
        block's; on the dense map a swap of the entry, free.
        """
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(
                f"leaf {leaf} outside [0, {self._num_leaves})"
            )
        entries = self._entries_view
        old = self._walk(block_id) if self._levels else entries[block_id]
        entries[block_id] = leaf
        return old

    def leaf_access(self):
        """The request kernel's leaf-access contract: ``(tags, update)``.

        The engines' request kernel (``serve``, bound by
        ``PathORAM._run_bins``) takes this pair once per request and all its
        leaves through it, so where the map lives stays the map's business.
        ``tags`` is a read-only view of the level-1 entries for the metadata
        channel — the label every block carries on the wire, the array
        :meth:`peek_many` indexes, for blocks that just came off a path.
        ``update`` is the protocol's one access per remap: with no recursion
        level, the entries ``tags`` views themselves, writable, which the
        kernel swaps in place (free; it passes ids it range-checked and
        leaves drawn from ``integers(0, num_leaves)`` or a range-checked
        plan); under recursion :meth:`update` itself, called back (one walk
        per update, in Path ORAM's order).  Both are stable for the map's
        lifetime, and trusted setup reads its labels off ``tags`` without a
        widened copy.
        """
        return self._leaf_access

    # ------------------------------------------------------------------
    # Charge-free channel (metadata reads, trusted setup)
    # ------------------------------------------------------------------
    def peek(self, block_id: int) -> int:
        """Label of ``block_id`` through the metadata channel (no charge).

        Blocks fetched from a path carry their (id, leaf) metadata with
        them, so the engine may read the label of an already-transferred
        block without an oblivious lookup.  Sanctioned only for blocks the
        caller just moved (path fetches, stash reattach) and for trusted
        setup.
        """
        self._check(block_id)
        return int(self._entries[block_id])

    def peek_many(self, block_ids) -> np.ndarray:
        """Vectorised :meth:`peek` (same sanction rules)."""
        ids = _as_int_array(block_ids, "block_ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self._num_blocks):
            raise BlockNotFoundError("block id outside position map range")
        return self._entries[ids].astype(np.int64)

    def load(self, block_id: int, leaf: int) -> None:
        """Trusted-setup assignment (never charged)."""
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(
                f"leaf {leaf} outside [0, {self._num_leaves})"
            )
        self._entries[block_id] = leaf

    def load_many(self, block_ids, leaves) -> None:
        """Trusted-setup bulk assignment (never charged).

        Initial placement and co-location run before the first
        adversary-visible access, under the same trust assumption as
        PathORAM's bulk load.  Non-integer input raises
        :class:`~repro.exceptions.ConfigurationError` instead of being
        truncated by an implicit ``int64`` cast.
        """
        ids = _as_int_array(block_ids, "block_ids")
        new_leaves = _as_int_array(leaves, "leaves")
        if ids.size != new_leaves.size:
            raise ConfigurationError(
                "block_ids and leaves must have equal length"
            )
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self._num_blocks:
            raise BlockNotFoundError("block id outside position map range")
        if new_leaves.min() < 0 or new_leaves.max() >= self._num_leaves:
            raise ConfigurationError("leaf outside position map leaf range")
        self._entries[ids] = new_leaves

    def as_array(self) -> np.ndarray:
        """Copy of the full logical map (tests, diagnostics, snapshots)."""
        return self._entries[: self._num_blocks].astype(np.int64)

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self._num_blocks:
            raise BlockNotFoundError(f"block {block_id} not in position map")
