"""The per-object reference tree: a complete binary tree of list buckets.

Same geometry and byte accounting as the shipped
:class:`~repro.oram.tree.ArrayTreeStorage` (full bucket capacity charged
per transferred path), with each bucket a list of
:class:`~oracle.block.Block` objects.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import num_nodes

from oracle.bits import node_index, path_node_indices
from oracle.block import Block
from oracle.bucket import Bucket


class TreeStorage:
    """Complete binary tree of buckets stored on the (untrusted) server."""

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
        self.block_size_bytes = block_size_bytes
        self.metadata_bytes_per_block = metadata_bytes_per_block
        #: ``(num_buckets, num_bytes)`` for transferring one full path.
        self.path_cost = (
            depth + 1,
            sum(self.bucket_capacities) * self.stored_block_bytes,
        )
        self._buckets: list[Bucket] = []
        for index in range(num_nodes(depth)):
            level = (index + 1).bit_length() - 1
            self._buckets.append(Bucket(self.bucket_capacities[level]))

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
        return len(self._buckets)

    def bucket(self, level: int, leaf: int) -> Bucket:
        """The bucket at ``level`` on the path to ``leaf``."""
        return self._buckets[node_index(level, leaf, self.depth)]

    def bucket_by_index(self, index: int) -> Bucket:
        """The bucket with breadth-first ``index``."""
        return self._buckets[index]

    def path_bucket_indices(self, leaf: int) -> list[int]:
        """Breadth-first bucket indices of the path to ``leaf``, root first."""
        return path_node_indices(leaf, self.depth)

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
    def read_path(self, leaf: int) -> list[Block]:
        """Remove and return every real block on the path to ``leaf``."""
        blocks: list[Block] = []
        for index in path_node_indices(leaf, self.depth):
            blocks.extend(self._buckets[index].pop_all())
        return blocks

    def peek_path(self, leaf: int) -> list[Block]:
        """Return (without removing) every real block on the path to ``leaf``."""
        blocks: list[Block] = []
        for index in path_node_indices(leaf, self.depth):
            blocks.extend(self._buckets[index].blocks)
        return blocks

    def write_path(self, leaf: int, placement: dict[int, list[Block]]) -> None:
        """Write ``placement`` (level -> blocks) onto the path to ``leaf``.

        Buckets on the path are assumed to have been emptied by a prior
        :meth:`read_path`; writing more blocks than a bucket's capacity is an
        error, as it would correspond to losing data on a real server.
        """
        for level, blocks in placement.items():
            bucket = self.bucket(level, leaf)
            if len(bucket) + len(blocks) > bucket.capacity:
                raise ConfigurationError(
                    f"placement overflows bucket at level {level}: "
                    f"{len(bucket)} + {len(blocks)} > {bucket.capacity}"
                )
            bucket.extend(blocks)

    # ------------------------------------------------------------------
    # Bulk operations / diagnostics
    # ------------------------------------------------------------------
    def try_place_on_path(self, block: Block) -> bool:
        """Place ``block`` as deep as possible on its own path; False if full."""
        for level in range(self.depth, -1, -1):
            bucket = self.bucket(level, block.leaf)
            if bucket.has_space():
                bucket.add(block)
                return True
        return False

    def real_block_count(self) -> int:
        """Number of real blocks currently stored in the tree."""
        return sum(len(bucket) for bucket in self._buckets)

    def occupancy_by_level(self) -> list[float]:
        """Average bucket utilisation per level (diagnostic for fat-tree studies)."""
        totals = [0] * (self.depth + 1)
        counts = [0] * (self.depth + 1)
        for index, bucket in enumerate(self._buckets):
            level = (index + 1).bit_length() - 1
            totals[level] += len(bucket)
            counts[level] += 1
        return [
            totals[level] / (counts[level] * self.bucket_capacities[level])
            for level in range(self.depth + 1)
        ]

    def iter_blocks(self) -> Iterable[Block]:
        """Iterate over every real block in the tree."""
        for bucket in self._buckets:
            yield from bucket

    # ------------------------------------------------------------------
    # The shipped tree's layout, read-only
    # ------------------------------------------------------------------
    @property
    def level_base(self) -> tuple[int, ...]:
        """First slot of each level in :attr:`slot_array`."""
        bases = [0]
        for level, capacity in enumerate(self.bucket_capacities[:-1]):
            bases.append(bases[-1] + (1 << level) * capacity)
        return tuple(bases)

    @property
    def slot_array(self) -> np.ndarray:
        """Every slot, level by level and node by node: ids in bucket order, ``-1`` after."""
        slots = []
        for bucket in self._buckets:
            ids = [block.block_id for block in bucket]
            slots += ids + [-1] * (bucket.capacity - len(ids))
        return np.array(slots, dtype=np.int64)

    @property
    def bucket_occupancies(self) -> np.ndarray:
        """Real blocks per bucket, breadth-first."""
        return np.array([len(bucket) for bucket in self._buckets], dtype=np.int64)
