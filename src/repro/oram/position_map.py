"""Position map: block id -> assigned path, client-held or recursive.

PathORAM defines the position map recursively: leaf labels are packed
``positions_per_block`` (χ) to a block and stored in a *smaller* tree ORAM,
whose own position map recurses the same way, and the recursion ends at an
array small enough to keep in trusted client memory.  :class:`PositionMap`
is that definition.  With no ``cutoff_bytes`` budget the base case is
reached at once: no recursion level, and the map is the dense array of one
8-byte label per block the client holds (hundreds of MB at the paper's DLRM
scale of 8M–16M rows — the gap the recursion closes).

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
dedicated ``posmap_*`` category (and to the timing model), keeping the
main-tree counters directly comparable between dense and recursive runs.
A ``get`` performs one full top-down walk; the matching ``set`` of the
same block id rides the walk for free (the standard recursion folds the
label update into the access that read it), which the map models as a
*write entitlement*: ``get(b)`` records ``b``, and the next ``set(b, ...)``
consumes the entitlement without a second walk.  A ``set`` without an
entitlement (e.g. remapping a stash-hit block) is its own charged walk.
With no level there is nothing to walk and nothing is charged.

Determinism.  The constructor draws the initial logical labels with one
RNG call whatever the level count, so an engine consumes its stream
identically dense or recursive and makes bit-identical decisions.
All recursion-internal label draws come from independent generators
spawned off the seed (:func:`repro.utils.rng.spawn_rngs`), never from the
engine stream.
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
from repro.oram.write_back import fused_fetch, fused_greedy_write_back
from repro.utils.bits import required_depth
from repro.utils.rng import spawn_rngs


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
        "rng",
        "num_leaves",
        "num_blocks",
        "path_buckets",
        "path_bytes",
        "depth",
        "slots",
        "occ",
        "caps",
        "level_base",
        "node_base",
        "groups",
        "read_stream",
    )

    def __init__(
        self,
        num_blocks: int,
        bucket_size: int,
        label_bytes: int,
        metadata_bytes_per_block: int,
        rng: np.random.Generator,
    ):
        depth = required_depth(num_blocks)
        self.tree = ArrayTreeStorage(
            depth=depth,
            bucket_capacities=tuple(bucket_size for _ in range(depth + 1)),
            block_size_bytes=label_bytes,
            metadata_bytes_per_block=metadata_bytes_per_block,
        )
        self.num_blocks = num_blocks
        self.num_leaves = self.tree.num_leaves
        self.depth = depth
        self.rng = rng
        self.path_buckets, self.path_bytes = self.tree.path_cost(0)
        # Server-side metadata mirror: a block's (id, leaf) tag travels with
        # it on the wire, so labels of path-fetched blocks are readable
        # without an oblivious lookup.  Not client memory.
        self.labels = rng.integers(
            0, self.num_leaves, size=num_blocks, dtype=np.int64
        )
        overflow = self.tree.bulk_place(self.labels)
        self.stash = {
            int(block): int(self.labels[block]) for block in overflow.tolist()
        }
        # Bound fused write-back operands (same shape the trace drivers use).
        self.slots = self.tree.slot_array
        self.occ = self.tree.bucket_occupancies
        self.caps = self.tree.bucket_capacities
        self.level_base = self.tree.level_base
        self.node_base = [(1 << level) - 1 for level in range(depth + 1)]
        self.groups = [[] for _ in range(depth + 1)]
        self.read_stream: Optional[list[int]] = None

    def client_memory_bytes(self, positions_per_block: int) -> int:
        """Stash residue: χ packed labels plus the id/leaf bookkeeping."""
        return len(self.stash) * (positions_per_block * 8 + 16)


class PositionMap:
    """Maps every real block to the leaf (path) it is currently assigned to.

    The protocol's lookup and remap are ``get`` / ``set``; ``peek`` /
    ``load`` (and their ``_many`` forms) are the charge-free metadata and
    trusted-setup channel; the array drivers bind :meth:`leaf_access` once
    per trace.  ``cutoff_bytes`` is the client-memory budget of the map:
    ``None`` keeps the whole array client-side (GPU HBM in the paper), where
    lookups are invisible to the adversary and free; a budget the array
    exceeds moves it into recursion ORAMs, leaving only the top map and the
    per-level stashes in client memory, and every ``get`` / ``set`` is a
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
        timing=None,
        seed: int = 0,
        record_streams: bool = False,
    ):
        if num_blocks < 1:
            raise ConfigurationError("num_blocks must be >= 1")
        if num_leaves < 2:
            raise ConfigurationError("num_leaves must be >= 2")
        if positions_per_block < 2:
            raise ConfigurationError("positions_per_block must be >= 2")
        if cutoff_bytes is not None and cutoff_bytes < 8:
            raise ConfigurationError("cutoff_bytes must be >= 8")
        if bucket_size < 1:
            raise ConfigurationError("bucket_size must be >= 1")
        self._num_blocks = num_blocks
        self._num_leaves = num_leaves
        self._chi = positions_per_block
        self.counter = counter if counter is not None else TrafficCounter()
        self.timing = timing

        # Level sizes: recurse while the dense map of the previous level
        # would not fit under the cutoff.
        sizes: list[int] = []
        entries = num_blocks
        while cutoff_bytes is not None and entries * 8 > cutoff_bytes and entries > 1:
            entries = -(-entries // positions_per_block)
            sizes.append(entries)
        depth_count = len(sizes)

        # One draw whatever the level count, so an engine consumes its RNG
        # stream identically dense or recursive.
        initial = rng.integers(0, num_leaves, size=num_blocks, dtype=np.int64)

        # Packed level-1 entries (the logical labels).  Padded to a whole
        # number of χ-blocks; the pad cells are never addressed.
        if depth_count:
            self._entries = np.zeros(sizes[0] * positions_per_block, dtype=np.int64)
            self._entries[:num_blocks] = initial
        else:
            self._entries = initial
        self._tags = _read_only(self._entries)

        rngs = spawn_rngs(seed, depth_count) if depth_count else []
        self._levels: list[_RecursionLevel] = []
        # values[k] packs the labels of the level below: for level k the
        # entry of child index i (an index at level k-1) is values[k][i].
        # Level 1's values are the logical entries themselves.
        self._values: list[np.ndarray] = [self._entries]
        label_bytes = positions_per_block * 8
        for index, size in enumerate(sizes):
            level = _RecursionLevel(
                num_blocks=size,
                bucket_size=bucket_size,
                label_bytes=label_bytes,
                metadata_bytes_per_block=metadata_bytes_per_block,
                rng=rngs[index],
            )
            if record_streams:
                level.read_stream = []
            self._levels.append(level)
            if index + 1 < depth_count:
                values = np.zeros(
                    sizes[index + 1] * positions_per_block, dtype=np.int64
                )
                values[:size] = level.labels
                self._values.append(values)
        # Dense top map: labels of the last level's blocks (client memory).
        if depth_count:
            self._top = self._levels[-1].labels.copy()
        else:
            self._top = self._entries
        self._chi_pows = [positions_per_block**k for k in range(depth_count + 1)]
        # Outstanding write entitlements: ids whose last charged walk has
        # not had its folded-in label update consumed yet.  A simulation
        # artifact of splitting the walk into get-then-set; the real client
        # state it stands for is the open transaction's path buffer.
        self._pending: set[int] = set()

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

    def geometry(self) -> list[dict[str, int]]:
        """Per-level shape summary (docs, experiments, diagnostics)."""
        return [
            {
                "level": index + 1,
                "blocks": level.num_blocks,
                "tree_depth": level.depth,
                "path_bytes": level.path_bytes,
                "stash_blocks": len(level.stash),
            }
            for index, level in enumerate(self._levels)
        ]

    def client_memory_bytes(self) -> int:
        """Honest client footprint: top map, level stashes, open walks."""
        total = int(self._top.nbytes)
        for level in self._levels:
            total += level.client_memory_bytes(self._chi)
        total += 8 * len(self._pending)
        return total

    def server_memory_bytes(self) -> int:
        """Server footprint of every recursion tree."""
        return sum(level.tree.server_memory_bytes for level in self._levels)

    # ------------------------------------------------------------------
    # The recursion walk
    # ------------------------------------------------------------------
    def _walk(self, block_id: int) -> int:
        """One charged top-down recursion access; returns the old entry.

        At each level the block holding ``block_id``'s entry is fetched
        (path read unless it is a stash hit), remapped to the fresh label
        its parent already installed, has the child's label read and
        refreshed, and is greedily written back.  The level-1 child entry
        — ``block_id``'s main-tree leaf — is returned *without* refreshing
        it: the engine owns that draw and installs it via :meth:`set`.
        """
        counter = self.counter
        timing = self.timing
        chi_pows = self._chi_pows
        values = self._values
        levels = self._levels

        top_index = block_id // chi_pows[len(levels)]
        leaf = int(self._top[top_index])
        top_level = levels[-1]
        fresh = int(top_level.rng.integers(0, top_level.num_leaves))
        self._top[top_index] = fresh

        for k in range(len(levels), 0, -1):
            level = levels[k - 1]
            stash = level.stash
            block = block_id // chi_pows[k]
            hit = block in stash
            # oblivious: allow[OBL001] client-side stash-hit fast path, the
            # same modeled behaviour as the main engine's access(); misses
            # and hits both refresh the block's label
            if not hit:
                fused_fetch(level.tree.read_path_ids, level.labels, stash, leaf)
                counter.record_posmap_path_read(level.path_bytes)
                if timing is not None:
                    timing.charge_path_transfer(
                        level.path_buckets, level.path_bytes
                    )
                if level.read_stream is not None:
                    level.read_stream.append(leaf)
                # oblivious: allow[OBL001] integrity check; aborts loudly
                if block not in stash:
                    raise IntegrityError(
                        f"recursion level {k} block {block} missing from "
                        f"both stash and path {leaf}"
                    )
            stash[block] = fresh
            level.labels[block] = fresh

            child = block_id // chi_pows[k - 1]
            # oblivious: allow[OBL001] level-1 terminates the walk: the
            # engine draws and installs the logical label itself
            if k > 1:
                child_level = levels[k - 2]
                next_leaf = int(values[k - 1][child])
                next_fresh = int(
                    child_level.rng.integers(0, child_level.num_leaves)
                )
                values[k - 1][child] = next_fresh
            else:
                next_leaf = int(values[0][child])
                next_fresh = -1
            # oblivious: allow[OBL001] write-back only follows a real path
            # read (stash hits moved no data), mirroring the main engine
            if not hit:
                fused_greedy_write_back(
                    stash,
                    level.groups,
                    level.caps,
                    level.level_base,
                    level.node_base,
                    level.slots,
                    level.occ,
                    level.depth,
                    leaf,
                )
                counter.record_posmap_path_write(level.path_bytes)
                if timing is not None:
                    timing.charge_path_transfer(
                        level.path_buckets, level.path_bytes
                    )
            leaf = next_leaf
            fresh = next_fresh
        return leaf

    # ------------------------------------------------------------------
    # Charged interface
    # ------------------------------------------------------------------
    def get(self, block_id: int) -> int:
        """Current leaf of ``block_id`` (one charged walk under recursion)."""
        self._check(block_id)
        if not self._levels:
            return int(self._entries[block_id])
        value = self._walk(block_id)
        self._pending.add(block_id)
        return value

    def set(self, block_id: int, leaf: int) -> None:
        """Reassign ``block_id`` to ``leaf``.

        Free when it consumes the write entitlement of a preceding
        :meth:`get` of the same id (the update rides that walk); otherwise
        the update is its own charged walk.
        """
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(
                f"leaf {leaf} outside [0, {self._num_leaves})"
            )
        if self._levels:
            # oblivious: allow[OBL001] entitlement bookkeeping is client
            # state; the walk below is charged iff no entitlement exists
            if block_id in self._pending:
                self._pending.discard(block_id)
            else:
                self._walk(block_id)
        self._entries[block_id] = leaf

    def leaf_access(self):
        """The array drivers' leaf-access contract: ``(tags, get, set)``.

        Every driver that runs a whole trace (the fused drivers, LAORAM's
        bin) binds this triple once per call and takes all its leaves
        through it, so where the map lives stays the map's business.
        ``tags`` is a read-only view of the level-1 entries for the
        metadata channel — the label every block carries on the wire, the
        array :meth:`peek_many` indexes, for blocks that just came off a
        path.  ``get(block_id)`` and ``set(block_id, leaf)`` are the
        protocol's lookup and remap: the charged walk and its write
        entitlement, or, with no recursion level, the array's own ``item``
        / ``__setitem__`` (free, and no Python frame per access).  Those
        two are unchecked: callers pass ids they range-checked and leaves
        drawn from ``integers(0, num_leaves)`` or a range-checked plan.
        All three are stable for the map's lifetime.
        """
        if self._levels:
            return self._tags, self.get, self.set
        entries = self._entries
        return self._tags, entries.item, entries.__setitem__

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
        return self._entries[ids]

    def load(self, block_id: int, leaf: int) -> None:
        """Trusted-setup assignment (never charged)."""
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(
                f"leaf {leaf} outside [0, {self._num_leaves})"
            )
        self._pending.discard(block_id)
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
        self._pending.difference_update(ids.reshape(-1).tolist())
        self._entries[ids] = new_leaves

    def as_array(self) -> np.ndarray:
        """Copy of the full logical map (tests, diagnostics, snapshots)."""
        return self._entries[: self._num_blocks].copy()

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self._num_blocks:
            raise BlockNotFoundError(f"block {block_id} not in position map")
