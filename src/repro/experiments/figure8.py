"""Figure 8: stash growth of fat vs normal trees under superblock pressure.

The paper disables background eviction and tracks raw stash occupancy over
~12,500 accesses of the worst-case permutation stream for four
configurations; the normal tree's stash grows several times faster than the
fat tree's.  This module reproduces those stash-occupancy curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.permutation import PermutationTraceGenerator
from repro.experiments.runner import run_configuration
from repro.experiments.scale import ExperimentScale, SMALL
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy

#: Figure 8 configurations: label -> (superblock size, bucket size, fat root size).
FIGURE8_CONFIGS: dict[str, tuple[int, int, int | None]] = {
    "Normal-4": (4, 4, None),
    "Fat-4": (4, 4, 8),
    "Normal-8": (8, 4, None),
    "Fat-8": (8, 4, 8),
}


@dataclass(frozen=True)
class Figure8Result:
    """Stash-occupancy histories for the four configurations."""

    num_accesses: int
    histories: dict[str, tuple[int, ...]]
    final_occupancy: dict[str, int]


def run_figure8(
    scale: ExperimentScale = SMALL,
    configs: dict[str, tuple[int, int, int | None]] | None = None,
    seed: int = 0,
) -> Figure8Result:
    """Reproduce the stash-growth comparison of Figure 8."""
    configs = configs if configs is not None else FIGURE8_CONFIGS
    trace = PermutationTraceGenerator(scale.num_blocks, seed=seed).generate(
        scale.num_accesses
    )
    histories: dict[str, tuple[int, ...]] = {}
    finals: dict[str, int] = {}
    for offset, (label, (superblock, bucket, fat_root)) in enumerate(configs.items()):
        oram_config = ORAMConfig(
            num_blocks=scale.num_blocks,
            block_size_bytes=scale.block_size_bytes,
            bucket_size=bucket,
            fat_tree=fat_root is not None,
            root_bucket_size=fat_root,
            background_eviction=False,
            seed=seed + offset,
        )
        result = run_configuration(
            f"{'Normal' if fat_root is None else 'Fat'}/S{superblock}",
            trace,
            oram_config,
            eviction=EvictionPolicy.disabled(),
            record_stash_history=True,
        )
        histories[label] = result.stash_history
        finals[label] = result.stash_history[-1] if result.stash_history else 0
    return Figure8Result(
        num_accesses=len(trace), histories=histories, final_occupancy=finals
    )
