"""Client-side stash: trusted temporary storage for blocks awaiting eviction.

Two implementations share the same semantics: :class:`Stash` holds
:class:`~repro.memory.block.Block` objects in a dict (the reference
per-object engine) and :class:`ArrayStash` keeps parallel ``int64`` row
arrays of block ids and leaves plus a dense id->row index (the vectorized
engine, which keeps payloads in an engine-level store).  Both preserve
dict-like ordering: removal plus re-insertion moves an id to the end, and
iteration follows insertion order — the ordering the greedy write-back
planner uses for tie-breaking, so the two engines pick identical eviction
victims.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.exceptions import StashOverflowError
from repro.memory.block import Block
from repro.oram.shm import DEFAULT_ALLOCATOR, ArrayAllocator


class Stash:
    """Trusted client buffer holding blocks that could not be written back.

    The stash lives in the trainer GPU's HBM in the paper's setting, so its
    accesses are invisible to the adversary.  An optional hard capacity lets
    experiments detect configurations whose stash would overflow a realistic
    client memory budget.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("stash capacity must be >= 1 when set")
        self._capacity = capacity
        self._entries: dict[int, Block] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def __iter__(self) -> Iterator[Block]:
        return iter(self._entries.values())

    @property
    def capacity(self) -> Optional[int]:
        """Hard limit on stash occupancy, or ``None`` for unbounded."""
        return self._capacity

    @property
    def block_ids(self) -> list[int]:
        """Identifiers of every stashed block."""
        return list(self._entries.keys())

    def add(self, block: Block) -> None:
        """Insert a block; replaces any existing entry with the same id."""
        if (
            self._capacity is not None
            and block.block_id not in self._entries
            and len(self._entries) >= self._capacity
        ):
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )
        self._entries[block.block_id] = block

    def get(self, block_id: int) -> Optional[Block]:
        """Return the stashed block with ``block_id`` without removing it."""
        return self._entries.get(block_id)

    def pop(self, block_id: int) -> Optional[Block]:
        """Remove and return the stashed block with ``block_id``."""
        return self._entries.pop(block_id, None)

    def clear(self) -> None:
        """Remove every entry (used only by tests)."""
        self._entries.clear()


class ArrayStash:
    """Row-array stash: ids and leaves in contiguous arrays, id->row index.

    The vectorized engine stores payloads in a client-side store, so the
    stash holds exactly what the write-back planner needs: per-resident-block
    the id and the assigned leaf, laid out as two parallel ``int64`` arrays
    in insertion order, plus a dense ``row_of`` index (one slot per block id,
    ``-1`` when absent) for O(1) membership and row lookup without any
    Python-dict churn.

    Removal marks a row as a hole (id ``-1``, leaf = the hole sentinel)
    instead of shifting rows; appends go at the tail, and the arrays are
    compacted — live rows shifted down, preserving order — only when the
    tail reaches the end, so per-operation cost stays a handful of
    vectorized assignments.  The hole sentinel is ``2 * num_leaves``: its
    xor with any real leaf has bit length ``depth + 2``, so holes sort
    *after* every real block in the write-back planner's common-level
    ordering and are never selected.

    Ordering matches the dict-backed :class:`Stash`: rows keep insertion
    order, and remove + re-add appends at the end (re-adding a resident id
    never happens — a block lives in exactly one of tree or stash).
    """

    #: Compact once this many hole rows accumulate: large enough that the
    #: per-append amortised compaction cost stays a fraction of a numpy op,
    #: small enough that the write-back scan stays close to the live count.
    COMPACT_SLACK = 128

    def __init__(
        self,
        num_blocks: int,
        num_leaves: int,
        capacity: Optional[int] = None,
        initial_rows: int = 256,
        allocator: Optional[ArrayAllocator] = None,
    ):
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if capacity is not None and capacity < 1:
            raise ValueError("stash capacity must be >= 1 when set")
        self._capacity = capacity
        self._hole_leaf = 2 * num_leaves
        self._allocator = allocator if allocator is not None else DEFAULT_ALLOCATOR
        self._ids = self._allocator.full("stash.ids", initial_rows, -1, np.int64)
        self._leaves = self._allocator.full(
            "stash.leaves", initial_rows, self._hole_leaf, np.int64
        )
        self._row_of = np.full(num_blocks, -1, dtype=np.int64)
        # Row numbers 0..size-1, sliced on every append instead of allocating
        # a fresh arange; regenerated only when the row arrays grow.
        self._rows = np.arange(initial_rows, dtype=np.int64)
        self._tail = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __contains__(self, block_id: int) -> bool:
        return bool(self._row_of[block_id] >= 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.block_ids)

    @property
    def capacity(self) -> Optional[int]:
        """Hard limit on stash occupancy, or ``None`` for unbounded."""
        return self._capacity

    @property
    def block_ids(self) -> list[int]:
        """Identifiers of every stashed block, in insertion order."""
        ids = self._ids[: self._tail]
        return ids[ids >= 0].tolist()

    # -- hot-path array views ------------------------------------------
    # The engine reads these directly; every mutation must go through the
    # methods below (or the engine's remap, which updates ``leaf_rows`` and
    # the position map together) so the id->row index stays consistent.
    @property
    def tail(self) -> int:
        """Number of rows in use (live blocks plus not-yet-compacted holes)."""
        return self._tail

    @property
    def id_rows(self) -> np.ndarray:
        """Row array of block ids (``-1`` marks a hole)."""
        return self._ids

    @property
    def leaf_rows(self) -> np.ndarray:
        """Row array of assigned leaves (the hole sentinel marks a hole)."""
        return self._leaves

    @property
    def row_of(self) -> np.ndarray:
        """Dense id -> row index; ``-1`` for ids not in the stash."""
        return self._row_of

    @property
    def hole_leaf(self) -> int:
        """Leaf sentinel stored in hole rows (``2 * num_leaves``)."""
        return self._hole_leaf

    def live_ids(self) -> np.ndarray:
        """Stashed block ids as an ``int64`` array, in insertion order."""
        ids = self._ids[: self._tail]
        return ids[ids >= 0]

    def leaf_of(self, block_id: int) -> int:
        """Assigned leaf of a stashed block (diagnostics/tests)."""
        row = int(self._row_of[block_id])
        if row < 0:
            raise KeyError(f"block {block_id} not in stash")
        return int(self._leaves[row])

    # -- mutation ------------------------------------------------------
    def _ensure_room(self, count: int) -> None:
        """Make space for ``count`` appended rows, compacting/growing as needed.

        Compaction also triggers once :data:`COMPACT_SLACK` holes pile up,
        keeping the write-back scan (which walks ``[:tail]``) close to the
        live row count.
        """
        if (
            self._tail + count <= self._ids.size
            and self._tail - self._live <= self.COMPACT_SLACK
        ):
            return
        used_ids = self._ids[: self._tail]
        live_mask = used_ids >= 0
        live_ids = used_ids[live_mask]
        live_leaves = self._leaves[: self._tail][live_mask]
        n = int(live_ids.size)
        size = self._ids.size
        # Keep at least half the array as slack so compactions stay rare.
        while size < 2 * (n + count):
            size *= 2
        if size != self._ids.size:
            self._ids = self._allocator.full("stash.ids", size, -1, np.int64)
            self._leaves = self._allocator.full(
                "stash.leaves", size, self._hole_leaf, np.int64
            )
            self._rows = np.arange(size, dtype=np.int64)
        else:
            # Rows behind the new tail keep stale ids/leaves; mark them as
            # holes so the write-back scan cannot resurrect them.
            self._ids[n : self._tail] = -1
            self._leaves[n : self._tail] = self._hole_leaf
        self._ids[:n] = live_ids
        self._leaves[:n] = live_leaves
        self._row_of[live_ids] = self._rows[:n]
        self._tail = n

    def add(self, block_id: int, leaf: int) -> None:
        """Insert one id/leaf pair (must not already be present)."""
        if self._capacity is not None and self._live >= self._capacity:
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )
        self._ensure_room(1)
        row = self._tail
        self._ids[row] = block_id
        self._leaves[row] = leaf
        self._row_of[block_id] = row
        self._tail = row + 1
        self._live += 1

    def append_rows(self, block_ids: np.ndarray, leaves: np.ndarray) -> None:
        """Append several id/leaf pairs (callers guarantee they are absent)."""
        count = int(block_ids.size)
        if count == 0:
            return
        if self._capacity is not None and self._live + count > self._capacity:
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )
        self._append(block_ids, leaves)

    def _append(self, block_ids: np.ndarray, leaves: np.ndarray) -> None:
        count = int(block_ids.size)
        self._ensure_room(count)
        tail = self._tail
        end = tail + count
        self._ids[tail:end] = block_ids
        self._leaves[tail:end] = leaves
        self._row_of[block_ids] = self._rows[tail:end]
        self._tail = end
        self._live += count

    # -- dict mirror (fused trace drivers) -------------------------------
    def mirror(self) -> dict[int, int]:
        """``{id: leaf}`` of the live rows, in row (== insertion) order.

        The fused drivers run a trace on this dict instead of the rows;
        insertion order replays every write-back tie-break.  Values are
        Python ints (bulk ``tolist``), so xor/bit_length stay small-int.
        """
        ids = self._ids[: self._tail]
        live = ids >= 0
        return dict(
            zip(ids[live].tolist(), self._leaves[: self._tail][live].tolist())
        )

    def load_mirror(self, stash_map: dict[int, int]) -> None:
        """Replace the contents with a mirror's entries, in its order.

        Not capacity-checked: the driver that owns the mirror raises
        :class:`StashOverflowError` itself, and its exit flush must put
        back every block it holds, over-full or not.
        """
        self.clear()
        count = len(stash_map)
        self._append(
            np.fromiter(stash_map.keys(), np.int64, count),
            np.fromiter(stash_map.values(), np.int64, count),
        )

    def set_leaf(self, block_id: int, leaf: int) -> None:
        """Update the assigned leaf of a stashed block (remap)."""
        row = self._row_of[block_id]
        if row < 0:
            raise KeyError(f"block {block_id} not in stash")
        self._leaves[row] = leaf

    def pop(self, block_id: int) -> bool:
        """Remove ``block_id``; returns whether it was present."""
        row = int(self._row_of[block_id])
        if row < 0:
            return False
        self._ids[row] = -1
        self._leaves[row] = self._hole_leaf
        self._row_of[block_id] = -1
        self._live -= 1
        return True

    def remove_rows(self, rows, block_ids: np.ndarray) -> None:
        """Remove the blocks at ``rows`` (write-back victims), vectorized.

        ``rows`` may be an ``int64`` array or a plain list of row numbers;
        ``block_ids`` must be ``id_rows[rows]`` — the caller already gathered
        them for the tree commit, so they are passed in rather than re-read.
        """
        self._ids[rows] = -1
        self._leaves[rows] = self._hole_leaf
        self._row_of[block_ids] = -1
        self._live -= len(rows)

    def clear(self) -> None:
        """Remove every entry."""
        ids = self._ids[: self._tail]
        self._row_of[ids[ids >= 0]] = -1
        self._ids[: self._tail] = -1
        self._leaves[: self._tail] = self._hole_leaf
        self._tail = 0
        self._live = 0
