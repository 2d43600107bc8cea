"""Client-side stash: trusted temporary storage for blocks awaiting eviction.

:class:`ArrayStash` is one insertion-ordered dict mapping ids to assigned
leaves (payloads live in the engine's store).  Removal plus re-insertion
moves an id to the end and iteration follows insertion order — the ordering
the greedy write-back uses for tie-breaking, and the order the per-object
reference stash the tests hold it to (``tests/oracle/stash.py``) keeps, so
both pick identical eviction victims.

One overflow rule: an insertion lands first, and only then is
:class:`~repro.exceptions.StashOverflowError` raised if the stash holds
more than its capacity.  A path fetch inserts the whole path before that
check, so the path it just emptied is never dropped: an engine that
overflowed still holds every block and takes the next access.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ConfigurationError, StashOverflowError


class ArrayStash:
    """Stash of the array engines: one ``{block_id: leaf}`` dict.

    The vectorized engine stores payloads in a client-side store, so the
    stash holds exactly what the write-back needs: per resident block its
    id and assigned leaf, as Python ints (xor / ``bit_length`` stay
    small-int) in insertion order.  The request kernel and the write-back
    kernels run on the dict itself (:attr:`entries`); the methods below are
    the same operations for everything that moves one block at a time.

    Overflow follows the module's one rule, as do the kernel's inline
    checks: an insertion lands before :class:`StashOverflowError` is raised.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError("stash capacity must be >= 1 when set")
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

    def pop(self, block_id: int) -> bool:
        """Remove ``block_id``; returns whether it was present."""
        return self._entries.pop(block_id, None) is not None
