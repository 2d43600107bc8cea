"""Section VIII-C: memory-neutral fat-tree vs enlarged normal tree.

The fat tree uses more memory than a normal tree with the same leaf bucket
size, so the paper also compares against a normal tree whose buckets are
enlarged uniformly until it is *at least as big* as the fat tree: a normal
tree of bucket size 6 versus a fat tree whose buckets shrink 9 (root) to 5
(leaf).  Even with the memory handicap the fat tree triggers ~12% fewer dummy
reads while using ~17% less memory, because it concentrates the extra slots
where write-backs actually land (near the root).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.permutation import PermutationTraceGenerator
from repro.experiments.runner import run_configuration
from repro.experiments.scale import ExperimentScale, SMALL
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy


@dataclass(frozen=True)
class MemoryNeutralResult:
    """Dummy reads and footprints of the two memory-comparable organisations."""

    normal_bucket_size: int
    fat_leaf_bucket_size: int
    fat_root_bucket_size: int
    normal_memory_bytes: int
    fat_memory_bytes: int
    normal_dummy_reads: int
    fat_dummy_reads: int
    num_accesses: int

    @property
    def fat_memory_saving_fraction(self) -> float:
        """How much less memory the fat tree uses than the enlarged normal tree."""
        return 1.0 - self.fat_memory_bytes / self.normal_memory_bytes

    @property
    def dummy_read_reduction_fraction(self) -> float:
        """Fraction of dummy reads removed by the fat tree."""
        if self.normal_dummy_reads == 0:
            return 0.0
        return 1.0 - self.fat_dummy_reads / self.normal_dummy_reads


def run_memory_neutral(
    scale: ExperimentScale = SMALL,
    superblock_size: int = 8,
    normal_bucket_size: int = 6,
    fat_leaf_bucket_size: int = 5,
    fat_root_bucket_size: int = 9,
    eviction: EvictionPolicy | None = None,
    seed: int = 0,
) -> MemoryNeutralResult:
    """Reproduce the memory-neutral comparison of Section VIII-C.

    The default eviction threshold is lower than the paper's 500 because the
    reduced-scale trees build up proportionally less stash pressure; the
    comparison (fat vs enlarged-normal) is unaffected.
    """
    eviction = eviction if eviction is not None else EvictionPolicy(
        enabled=True, trigger_threshold=100, drain_target=10
    )
    trace = PermutationTraceGenerator(scale.num_blocks, seed=seed).generate(
        scale.num_accesses
    )

    normal_config = ORAMConfig(
        num_blocks=scale.num_blocks,
        block_size_bytes=scale.block_size_bytes,
        bucket_size=normal_bucket_size,
        seed=seed,
    )
    fat_config = ORAMConfig(
        num_blocks=scale.num_blocks,
        block_size_bytes=scale.block_size_bytes,
        bucket_size=fat_leaf_bucket_size,
        fat_tree=True,
        root_bucket_size=fat_root_bucket_size,
        seed=seed + 1,
    )

    normal = run_configuration(
        f"Normal/S{superblock_size}", trace, normal_config, eviction=eviction
    )
    fat = run_configuration(
        f"Fat/S{superblock_size}", trace, fat_config, eviction=eviction
    )

    return MemoryNeutralResult(
        normal_bucket_size=normal_bucket_size,
        fat_leaf_bucket_size=fat_leaf_bucket_size,
        fat_root_bucket_size=fat_root_bucket_size,
        normal_memory_bytes=normal.server_memory_bytes,
        fat_memory_bytes=fat.server_memory_bytes,
        normal_dummy_reads=normal.snapshot.dummy_reads,
        fat_dummy_reads=fat.snapshot.dummy_reads,
        num_accesses=len(trace),
    )
