"""Client-side stash: trusted temporary storage for blocks awaiting eviction.

Two implementations share the same semantics, each over one
insertion-ordered dict: :class:`Stash` maps ids to
:class:`~repro.memory.block.Block` objects (the reference per-object engine)
and :class:`ArrayStash` maps ids to assigned leaves (the vectorized engine,
which keeps payloads in an engine-level store).  Removal plus re-insertion
moves an id to the end and iteration follows insertion order — the ordering
the greedy write-back uses for tie-breaking, so the two engines pick
identical eviction victims.

Both follow one overflow rule: an insertion lands first, and only then is
:class:`~repro.exceptions.StashOverflowError` raised if the stash holds
more than its capacity.  A path fetch inserts the whole path before that
check, so the path it just emptied is never dropped: an engine that
overflowed still holds every block and takes the next access.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.exceptions import StashOverflowError
from repro.memory.block import Block


class Stash:
    """Trusted client buffer holding blocks that could not be written back.

    The stash lives in the trainer GPU's HBM in the paper's setting, so its
    accesses are invisible to the adversary.  An optional hard capacity lets
    experiments detect configurations whose stash would overflow a realistic
    client memory budget: an insertion that overflows it lands, then raises
    :class:`StashOverflowError` (the module's one overflow rule).
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
        """Insert a block (replacing any entry with its id), then check capacity."""
        self.extend((block,))

    def extend(self, blocks: Iterable[Block]) -> None:
        """Insert blocks in order, then raise if the stash is over capacity."""
        entries = self._entries
        for block in blocks:
            entries[block.block_id] = block
        if self._capacity is not None and len(entries) > self._capacity:
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )

    def get(self, block_id: int) -> Optional[Block]:
        """Return the stashed block with ``block_id`` without removing it."""
        return self._entries.get(block_id)

    def pop(self, block_id: int) -> Optional[Block]:
        """Remove and return the stashed block with ``block_id``."""
        return self._entries.pop(block_id, None)


class ArrayStash:
    """Stash of the array engines: one ``{block_id: leaf}`` dict.

    The vectorized engine stores payloads in a client-side store, so the
    stash holds exactly what the write-back needs: per resident block its
    id and assigned leaf, as Python ints (xor / ``bit_length`` stay
    small-int) in insertion order.  The trace kernel and the write-back
    kernels run on the dict itself (:attr:`entries`); the methods below are
    the same operations for everything that moves one block at a time.

    Overflow follows the module's one rule, as do the kernel's inline
    checks: an insertion lands before :class:`StashOverflowError` is raised.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("stash capacity must be >= 1 when set")
        self._capacity = capacity
        self._entries: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    @property
    def capacity(self) -> Optional[int]:
        """Hard limit on stash occupancy, or ``None`` for unbounded."""
        return self._capacity

    @property
    def entries(self) -> dict[int, int]:
        """The live ``{block_id: leaf}`` dict (no copy), for the kernel.

        The same object for the stash's lifetime.  Code that inserts
        into it directly makes its own capacity check.
        """
        return self._entries

    @property
    def block_ids(self) -> list[int]:
        """Identifiers of every stashed block, in insertion order."""
        return list(self._entries)

    def leaf_of(self, block_id: int) -> int:
        """Assigned leaf of a stashed block; ``KeyError`` when absent."""
        return self._entries[block_id]

    def check_capacity(self) -> None:
        """Raise :class:`StashOverflowError` when occupancy exceeds the bound."""
        if self._capacity is not None and len(self._entries) > self._capacity:
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )

    def add(self, block_id: int, leaf: int) -> None:
        """Insert one id/leaf pair at the end (a block lives in the tree or
        in the stash, never both: the id is not already present)."""
        self._entries[int(block_id)] = int(leaf)
        self.check_capacity()

    def extend(self, block_ids: np.ndarray, leaves: np.ndarray) -> None:
        """Append several id/leaf pairs (callers guarantee they are absent)."""
        self._entries.update(zip(block_ids.tolist(), leaves.tolist()))
        self.check_capacity()

    def set_leaf(self, block_id: int, leaf: int) -> None:
        """Update the assigned leaf of a stashed block (remap)."""
        if block_id not in self._entries:
            raise KeyError(f"block {block_id} not in stash")
        self._entries[block_id] = int(leaf)

    def pop(self, block_id: int) -> bool:
        """Remove ``block_id``; returns whether it was present."""
        return self._entries.pop(block_id, None) is not None
