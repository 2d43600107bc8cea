"""Figure 7: LAORAM speedups over PathORAM on all six workloads.

Sub-figures (a)-(f) report the speedup of ``Normal/S{2,4,8}`` and
``Fat/S{2,4,8}`` over the PathORAM baseline for Permutation (two table
sizes), Gaussian (two table sizes), DLRM-Kaggle and XLM-R-XNLI access
streams.  The paper's headline numbers are ~5x on Kaggle and ~5.4x on XNLI
for the best configuration, with much smaller gains (and a superblock-size-8
dip for the normal tree) on the adversarial permutation workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.base import AccessTrace
from repro.datasets.registry import make_trace
from repro.exceptions import ConfigurationError
from repro.experiments.configs import PAPER_CONFIG_LABELS, build_oram_config
from repro.experiments.metrics import ExperimentResult
from repro.experiments.runner import compare_configurations
from repro.experiments.scale import ExperimentScale, SMALL

#: Workloads of the six sub-figures, mapped to (dataset name, table selector).
SUBFIGURES: dict[str, tuple[str, str]] = {
    "7a": ("permutation", "base"),
    "7b": ("permutation", "secondary"),
    "7c": ("gaussian", "base"),
    "7d": ("gaussian", "secondary"),
    "7e": ("kaggle", "base"),
    "7f": ("xnli", "base"),
}


@dataclass(frozen=True)
class Figure7Result:
    """Speedups of every configuration for one sub-figure."""

    subfigure: str
    dataset: str
    num_blocks: int
    num_accesses: int
    results: dict[str, ExperimentResult]
    speedups: dict[str, float]

    @property
    def best_speedup(self) -> float:
        """Largest speedup over PathORAM."""
        return max(self.speedups.values())


def run_figure7(
    subfigure: str,
    scale: ExperimentScale = SMALL,
    labels: tuple[str, ...] = PAPER_CONFIG_LABELS,
    seed: int = 0,
) -> Figure7Result:
    """Reproduce one sub-figure of Figure 7 at the requested scale."""
    if subfigure not in SUBFIGURES:
        raise ConfigurationError(
            f"unknown sub-figure '{subfigure}'; expected one of {sorted(SUBFIGURES)}"
        )
    dataset, selector = SUBFIGURES[subfigure]
    num_blocks = scale.num_blocks if selector == "base" else scale.secondary_blocks
    trace = make_trace(dataset, num_blocks, scale.num_accesses, seed=seed)
    return run_figure7_on_trace(subfigure, trace, scale, labels=labels, seed=seed)


def run_figure7_on_trace(
    subfigure: str,
    trace: AccessTrace,
    scale: ExperimentScale,
    labels: tuple[str, ...] = PAPER_CONFIG_LABELS,
    seed: int = 0,
) -> Figure7Result:
    """Reproduce a Figure 7 sub-figure on a caller-supplied trace."""
    if "PathORAM" not in labels:
        raise ConfigurationError("Figure 7 requires the PathORAM baseline label")
    oram_config = build_oram_config(
        num_blocks=trace.num_blocks,
        block_size_bytes=scale.block_size_bytes,
        seed=seed,
    )
    results = compare_configurations(labels, trace, oram_config, base_seed=seed)
    baseline = results["PathORAM"]
    speedups = {
        label: result.speedup_over(baseline) for label, result in results.items()
    }
    return Figure7Result(
        subfigure=subfigure,
        dataset=trace.name,
        num_blocks=trace.num_blocks,
        num_accesses=len(trace),
        results=results,
        speedups=speedups,
    )
