"""Configuration objects shared by every ORAM implementation.

The central knobs mirror the paper's experimental setup:

* ``num_blocks`` and ``block_size_bytes`` define the embedding table
  (e.g. 8M x 128 B for the synthetic DLRM table, 262144 x 4 KiB for XLM-R);
* ``bucket_size`` is the per-node capacity Z (paper default 4);
* the fat-tree policy widens buckets linearly from the leaves to the root
  (Section V), e.g. leaf 4 / root 8;
* background eviction triggers once the stash exceeds a threshold and drains
  it down to a target (paper: 500 and 50).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.oram.position_map import LABEL_BYTES, LABEL_DTYPE
from repro.utils.bits import num_leaves, num_nodes, required_depth


@dataclass(frozen=True)
class FatTreePolicy:
    """Bucket-capacity schedule for the fat-tree organisation.

    Two growth modes are supported, both taken from the paper:

    * ``"linear"`` — capacities interpolate linearly from
      ``root_bucket_size`` at level 0 down to ``leaf_bucket_size`` at the
      leaves.  This matches the configuration labels used in the performance
      experiments ("8-to-4", "10-to-5", "16-to-8").
    * ``"increment"`` — capacity grows by one slot per level towards the
      root (``leaf + (depth - level)``).  For deep trees this is the policy
      whose memory overhead (~25%) matches Table I's fat-tree column.
    """

    leaf_bucket_size: int
    root_bucket_size: int
    growth: str = "linear"

    def __post_init__(self) -> None:
        if self.leaf_bucket_size < 1:
            raise ConfigurationError("leaf_bucket_size must be >= 1")
        if self.root_bucket_size < self.leaf_bucket_size:
            raise ConfigurationError(
                "root_bucket_size must be >= leaf_bucket_size "
                f"({self.root_bucket_size} < {self.leaf_bucket_size})"
            )
        if self.growth not in ("linear", "increment"):
            raise ConfigurationError("growth must be 'linear' or 'increment'")

    def capacity_at(self, level: int, depth: int) -> int:
        """Bucket capacity at ``level`` of a tree with leaf level ``depth``."""
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if not 0 <= level <= depth:
            raise ConfigurationError(f"level {level} outside [0, {depth}]")
        if self.growth == "increment":
            return self.leaf_bucket_size + (depth - level)
        span = self.root_bucket_size - self.leaf_bucket_size
        # Linear interpolation, rounded to the nearest slot.
        return self.leaf_bucket_size + round(span * (depth - level) / depth)

    def schedule(self, depth: int) -> tuple[int, ...]:
        """Full per-level capacity tuple for a tree with leaf level ``depth``."""
        return tuple(self.capacity_at(level, depth) for level in range(depth + 1))


@dataclass(frozen=True)
class ORAMConfig:
    """Static parameters of an ORAM instance.

    Attributes:
        num_blocks: Number of real data blocks (embedding rows).
        block_size_bytes: Payload size of one block on the server.
        bucket_size: Bucket capacity Z for a normal (uniform) tree, and the
            leaf capacity when a fat tree is used.
        fat_tree: Whether to use the variable-bucket fat-tree organisation.
        root_bucket_size: Root capacity of the fat tree.  Defaults to
            ``2 * bucket_size`` as in the paper.
        fat_tree_growth: ``"linear"`` (root-to-leaf interpolation, the
            performance-experiment configuration) or ``"increment"`` (one
            extra slot per level towards the root, the Table I footprint).
        eviction_threshold: Stash occupancy that triggers background eviction.
        eviction_target: Stash occupancy the background eviction drains to.
        background_eviction: Whether background (dummy-read) eviction is on.
        stash_capacity: Optional hard stash limit; exceeding it raises
            :class:`~repro.exceptions.StashOverflowError`.
        metadata_bytes_per_block: Per-block metadata (id, leaf, MAC) that is
            transferred alongside the payload.
        seed: Seed for path randomisation.
        recursive_posmap: Store the position map in recursion ORAMs
            (see :class:`~repro.oram.position_map.PositionMap`) instead of
            a trusted dense array; recursion traffic is charged under the
            ``posmap_*`` counters.
        posmap_positions_per_block: Leaf labels packed per recursion block
            (χ in the PathORAM recursion construction).
        posmap_cutoff_bytes: Client-memory budget the recursion shrinks the
            top-level dense map under.
    """

    num_blocks: int
    block_size_bytes: int = 128
    bucket_size: int = 4
    fat_tree: bool = False
    root_bucket_size: Optional[int] = None
    fat_tree_growth: str = "linear"
    eviction_threshold: int = 500
    eviction_target: int = 50
    background_eviction: bool = True
    stash_capacity: Optional[int] = None
    metadata_bytes_per_block: int = 16
    seed: int = 0
    recursive_posmap: bool = False
    posmap_positions_per_block: int = 64
    posmap_cutoff_bytes: int = 1 << 16

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigurationError("num_blocks must be >= 1")
        if self.block_size_bytes < 1:
            raise ConfigurationError("block_size_bytes must be >= 1")
        if self.bucket_size < 1:
            raise ConfigurationError("bucket_size must be >= 1")
        if self.eviction_threshold < 1:
            raise ConfigurationError("eviction_threshold must be >= 1")
        if self.eviction_target < 0:
            raise ConfigurationError("eviction_target must be >= 0")
        if self.eviction_target > self.eviction_threshold:
            raise ConfigurationError(
                "eviction_target must not exceed eviction_threshold"
            )
        if self.stash_capacity is not None and self.stash_capacity < 1:
            raise ConfigurationError("stash_capacity must be >= 1 when set")
        if self.root_bucket_size is not None and self.root_bucket_size < self.bucket_size:
            raise ConfigurationError("root_bucket_size must be >= bucket_size")
        if self.fat_tree_growth not in ("linear", "increment"):
            raise ConfigurationError("fat_tree_growth must be 'linear' or 'increment'")
        if self.metadata_bytes_per_block < 0:
            raise ConfigurationError("metadata_bytes_per_block must be >= 0")
        if self.posmap_positions_per_block < 2:
            raise ConfigurationError("posmap_positions_per_block must be >= 2")
        if self.posmap_cutoff_bytes < LABEL_BYTES:
            raise ConfigurationError(
                f"posmap_cutoff_bytes must be >= {LABEL_BYTES}, the bytes of "
                f"one leaf label ({LABEL_DTYPE.name})"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Leaf level of the ORAM tree."""
        return required_depth(self.num_blocks)

    @property
    def num_leaves(self) -> int:
        """Number of leaves (distinct paths)."""
        return num_leaves(self.depth)

    @property
    def num_buckets(self) -> int:
        """Total number of buckets in the tree."""
        return num_nodes(self.depth)

    @property
    def fat_tree_policy(self) -> Optional[FatTreePolicy]:
        """The capacity schedule when ``fat_tree`` is enabled, else ``None``."""
        if not self.fat_tree:
            return None
        root = self.root_bucket_size
        if root is None:
            root = 2 * self.bucket_size
        return FatTreePolicy(
            leaf_bucket_size=self.bucket_size,
            root_bucket_size=root,
            growth=self.fat_tree_growth,
        )

    def bucket_capacities(self) -> tuple[int, ...]:
        """Per-level bucket capacities from root (index 0) to leaf."""
        policy = self.fat_tree_policy
        if policy is None:
            return tuple(self.bucket_size for _ in range(self.depth + 1))
        return policy.schedule(self.depth)

    # ------------------------------------------------------------------
    # Memory footprints (Table I)
    # ------------------------------------------------------------------
    @property
    def stored_block_bytes(self) -> int:
        """Bytes one block occupies on the server (payload + metadata)."""
        return self.block_size_bytes + self.metadata_bytes_per_block

    @property
    def insecure_memory_bytes(self) -> int:
        """Footprint of the table with no ORAM protection."""
        return self.num_blocks * self.block_size_bytes

    @property
    def server_memory_bytes(self) -> int:
        """Footprint of the ORAM tree on the server (all slots, real or dummy)."""
        capacities = self.bucket_capacities()
        total_slots = 0
        for level, capacity in enumerate(capacities):
            total_slots += capacity * (1 << level)
        return total_slots * self.stored_block_bytes

    @property
    def total_slots(self) -> int:
        """Total number of block slots in the tree."""
        return sum(capacity * (1 << level) for level, capacity in enumerate(self.bucket_capacities()))

    def with_overrides(self, **changes) -> "ORAMConfig":
        """Return a copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)
