"""Shard planning: geometry, trace routing and picklable engine recipes.

The planner is the pure, process-free half of sharded execution.  It owns
the round-robin block-id partition (block ``b`` lives in shard
``b % num_shards`` under local id ``b // num_shards``), routes global traces
into per-shard local traces, and describes each shard's engine as a
:class:`ShardEngineSpec` — a frozen, picklable recipe that can be shipped to
a worker process and built there.  Keeping construction *data* separate from
construction *code* is what lets the in-process and worker-process
backends share one source of truth: both build their engines from the same
specs, so a fixed seed gives bit-identical engines in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import LAORAMConfig
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ENGINE_CLASSES
from repro.oram.config import ORAMConfig

#: Families the runner can shard, mapped to their engine classes: every
#: family of the one table in :mod:`repro.experiments.configs`.
SHARDABLE_FAMILIES = ENGINE_CLASSES


@dataclass(frozen=True)
class ShardEngineSpec:
    """Picklable recipe for one shard's engine.

    Everything needed to construct the engine in *any* process: the family,
    the shard-local namespace size, the per-shard seed, and the family
    knobs.  :meth:`build` is the only place in the package that constructs
    shard engines, so in-process and worker-process execution cannot drift
    apart.
    """

    family: str
    num_blocks: int
    superblock_size: int
    block_size_bytes: int
    fat_tree: bool
    seed: int

    def build(self):
        """Construct the engine this spec describes."""
        engine_cls = SHARDABLE_FAMILIES[self.family]
        oram_config = ORAMConfig(
            num_blocks=self.num_blocks,
            block_size_bytes=self.block_size_bytes,
            fat_tree=self.fat_tree,
            seed=self.seed,
        )
        if self.family == "laoram":
            return engine_cls(
                LAORAMConfig(oram=oram_config, superblock_size=self.superblock_size)
            )
        return engine_cls(oram_config)


class ShardPlanner:
    """Round-robin partition of a block namespace into independent shards.

    Round-robin (rather than contiguous ranges) spreads skewed popularity —
    embedding hot rows cluster by feature, not uniformly — so shards see
    comparable load under Zipfian traces.
    """

    def __init__(
        self,
        num_blocks: int,
        num_shards: int,
        family: str = "laoram",
        superblock_size: int = 4,
        block_size_bytes: int = 128,
        fat_tree: bool = False,
        seed: int = 0,
    ):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if num_blocks < 2 * num_shards:
            raise ConfigurationError(
                "each shard needs at least 2 blocks; "
                f"{num_blocks} blocks cannot fill {num_shards} shards"
            )
        if family not in SHARDABLE_FAMILIES:
            raise ConfigurationError(
                f"unknown shardable family '{family}'; "
                f"choose from {sorted(SHARDABLE_FAMILIES)}"
            )
        self.num_blocks = num_blocks
        self.num_shards = num_shards
        self.family = family
        self.superblock_size = superblock_size
        self.block_size_bytes = block_size_bytes
        self.fat_tree = fat_tree
        self.seed = seed

    # ------------------------------------------------------------------
    # Shard geometry
    # ------------------------------------------------------------------
    def shard_of(self, block_id: int) -> int:
        """Shard owning ``block_id``."""
        return block_id % self.num_shards

    def local_id(self, block_id: int) -> int:
        """``block_id``'s identifier inside its shard's namespace."""
        return block_id // self.num_shards

    def shard_num_blocks(self, shard_id: int) -> int:
        """Number of global block ids routed to ``shard_id``."""
        return (self.num_blocks - shard_id + self.num_shards - 1) // self.num_shards

    def split_trace(self, addresses: Sequence[int] | np.ndarray) -> list[np.ndarray]:
        """Route a global trace into per-shard local-id traces, order kept."""
        addr = np.asarray(addresses, dtype=np.int64)
        if addr.size and (addr.min() < 0 or addr.max() >= self.num_blocks):
            raise ConfigurationError("trace address outside the block namespace")
        shard = addr % self.num_shards
        local = addr // self.num_shards
        return [local[shard == s] for s in range(self.num_shards)]

    def split_ids(self, block_ids: Sequence[int]) -> dict[int, list[int]]:
        """Group global ids by shard as local ids, preserving arrival order.

        Serving-path counterpart of :meth:`split_trace`: each id goes to
        :meth:`shard_of` as its :meth:`local_id`.  Returns only the shards
        that actually appear, as plain lists (cheap for the small batches
        the asyncio front-end coalesces).
        """
        routed: dict[int, list[int]] = {}
        for block_id in block_ids:
            if not 0 <= block_id < self.num_blocks:
                raise ConfigurationError(
                    f"block id {block_id} outside the block namespace"
                )
            routed.setdefault(block_id % self.num_shards, []).append(
                block_id // self.num_shards
            )
        return routed

    # ------------------------------------------------------------------
    # Engine recipes
    # ------------------------------------------------------------------
    def engine_spec(self, shard_id: int) -> ShardEngineSpec:
        """Picklable construction recipe for ``shard_id``'s engine."""
        return ShardEngineSpec(
            family=self.family,
            num_blocks=self.shard_num_blocks(shard_id),
            superblock_size=self.superblock_size,
            block_size_bytes=self.block_size_bytes,
            fat_tree=self.fat_tree,
            seed=self.seed + shard_id,
        )
