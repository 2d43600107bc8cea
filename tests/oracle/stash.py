"""The per-object reference stash: one insertion-ordered ``{id: Block}`` dict.

Same ordering and overflow rule as the shipped
:class:`~repro.oram.stash.ArrayStash`: removal plus re-insertion moves an id
to the end, iteration follows insertion order (the greedy write-back's
tie-break), and an insertion lands before
:class:`~repro.exceptions.StashOverflowError` is raised.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.exceptions import StashOverflowError

from oracle.block import Block


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

    def items(self) -> list[tuple[int, int]]:
        """Every ``(block_id, leaf)`` pair, in insertion order."""
        return [(block_id, block.leaf) for block_id, block in self._entries.items()]

    def leaf_of(self, block_id: int) -> int:
        """Leaf of the stashed block ``block_id`` (``KeyError`` when absent)."""
        return self._entries[block_id].leaf

    def get(self, block_id: int) -> Optional[Block]:
        """Return the stashed block with ``block_id`` without removing it."""
        return self._entries.get(block_id)

    def pop(self, block_id: int) -> Optional[Block]:
        """Remove and return the stashed block with ``block_id``."""
        return self._entries.pop(block_id, None)
