"""Table II: average dummy reads per access across datasets and configurations.

Dummy reads are the background-eviction path fetches triggered when the
client stash exceeds 500 blocks (drained down to 50).  The paper reports the
average number of dummy reads per logical access for the normal and fat trees
at superblock sizes 4 and 8 on the four workloads; the fat tree cuts dummy
reads by roughly 3x and the real-model workloads (Kaggle, XNLI) incur far
fewer dummy reads than the adversarial permutation stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.registry import make_trace
from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.experiments.metrics import ExperimentResult
from repro.experiments.runner import run_configuration
from repro.experiments.scale import ExperimentScale, SMALL
from repro.oram.eviction import EvictionPolicy

#: Row order of Table II.
TABLE2_CONFIGS: tuple[str, ...] = ("Fat/S8", "Fat/S4", "Normal/S8", "Normal/S4")

#: Column order of Table II.
TABLE2_DATASETS: tuple[str, ...] = ("permutation", "gaussian", "kaggle", "xnli")


@dataclass(frozen=True)
class Table2Result:
    """Average dummy reads per access, indexed by configuration and dataset."""

    dummy_reads: dict[str, dict[str, float]]
    results: dict[str, dict[str, ExperimentResult]]

    def value(self, config: str, dataset: str) -> float:
        """Dummy reads per access for one cell of the table."""
        try:
            return self.dummy_reads[config][dataset]
        except KeyError:
            raise ConfigurationError(f"no cell for ({config}, {dataset})") from None


def run_table2(
    scale: ExperimentScale = SMALL,
    configs: tuple[str, ...] = TABLE2_CONFIGS,
    datasets: tuple[str, ...] = TABLE2_DATASETS,
    eviction: EvictionPolicy | None = None,
    seed: int = 0,
) -> Table2Result:
    """Reproduce Table II at the requested scale."""
    eviction = eviction if eviction is not None else EvictionPolicy.paper_default()
    oram_config = build_oram_config(
        num_blocks=scale.num_blocks,
        block_size_bytes=scale.block_size_bytes,
        seed=seed,
    )
    dummy: dict[str, dict[str, float]] = {}
    results: dict[str, dict[str, ExperimentResult]] = {}
    for config_offset, label in enumerate(configs):
        dummy[label] = {}
        results[label] = {}
        for dataset_offset, dataset in enumerate(datasets):
            trace = make_trace(
                dataset, scale.num_blocks, scale.num_accesses, seed=seed + dataset_offset
            )
            result = run_configuration(
                label,
                trace,
                oram_config,
                eviction=eviction,
                seed=seed + 10 * config_offset + dataset_offset,
            )
            dummy[label][dataset] = result.dummy_reads_per_access
            results[label][dataset] = result
    return Table2Result(dummy_reads=dummy, results=results)
