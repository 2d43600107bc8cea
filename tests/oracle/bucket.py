"""A single ORAM tree node (bucket) holding up to ``capacity`` real blocks.

Dummy blocks are not materialised: the server is always charged for the full
bucket capacity when a path is transferred, so only real occupancy needs to
be tracked in memory.
"""

from __future__ import annotations

from typing import Iterable, Optional

from oracle.block import Block


class Bucket:
    """Fixed-capacity container of real blocks at one tree node."""

    __slots__ = ("capacity", "_blocks")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        self.capacity = capacity
        self._blocks: list[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self):
        return iter(self._blocks)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """Immutable view of the real blocks currently stored."""
        return tuple(self._blocks)

    @property
    def free_slots(self) -> int:
        """Number of slots currently holding dummy data."""
        return self.capacity - len(self._blocks)

    def has_space(self) -> bool:
        """Whether at least one more real block fits."""
        return len(self._blocks) < self.capacity

    def add(self, block: Block) -> None:
        """Insert a real block; raises if the bucket is full."""
        if not self.has_space():
            raise ValueError("bucket is full")
        self._blocks.append(block)

    def extend(self, blocks: Iterable[Block]) -> None:
        """Insert several blocks, respecting capacity."""
        for block in blocks:
            self.add(block)

    def pop_all(self) -> list[Block]:
        """Remove and return every real block (used by path reads)."""
        blocks = self._blocks
        self._blocks = []
        return blocks

    def remove(self, block_id: int) -> Optional[Block]:
        """Remove and return the block with ``block_id`` if present."""
        for index, block in enumerate(self._blocks):
            if block.block_id == block_id:
                return self._blocks.pop(index)
        return None

    def find(self, block_id: int) -> Optional[Block]:
        """Return the block with ``block_id`` without removing it."""
        for block in self._blocks:
            if block.block_id == block_id:
                return block
        return None
