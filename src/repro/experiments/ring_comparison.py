"""Section VIII-G: how LAORAM relates to RingORAM.

RingORAM attacks the same bandwidth problem from an orthogonal direction (one
block per bucket on the online read).  The paper argues LAORAM superblocks
compose with RingORAM; this module quantifies the comparison available in the
reproduction: per-access traffic and simulated latency of PathORAM, RingORAM
and LAORAM on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.registry import make_trace
from repro.experiments.configs import build_oram_config
from repro.experiments.metrics import ExperimentResult
from repro.experiments.runner import run_configuration
from repro.experiments.scale import ExperimentScale, SMALL


@dataclass(frozen=True)
class RingComparisonResult:
    """Per-engine results of the RingORAM comparison."""

    dataset: str
    results: dict[str, ExperimentResult]

    def bytes_per_access(self, label: str) -> float:
        """Average bytes moved per access for one engine."""
        return self.results[label].bytes_per_access

    def speedup_over_pathoram(self, label: str) -> float:
        """Speedup of ``label`` relative to the PathORAM baseline."""
        return self.results[label].speedup_over(self.results["PathORAM"])


def run_ring_comparison(
    scale: ExperimentScale = SMALL,
    dataset: str = "kaggle",
    laoram_label: str = "Fat/S4",
    seed: int = 0,
) -> RingComparisonResult:
    """Compare PathORAM, RingORAM and a LAORAM configuration on one workload."""
    trace = make_trace(dataset, scale.num_blocks, scale.num_accesses, seed=seed)
    oram_config = build_oram_config(
        num_blocks=scale.num_blocks,
        block_size_bytes=scale.block_size_bytes,
        seed=seed,
    )
    results = {
        label: run_configuration(label, trace, oram_config, seed=seed + offset)
        for offset, label in enumerate(("PathORAM", "RingORAM", laoram_label))
    }
    return RingComparisonResult(dataset=trace.name, results=results)
