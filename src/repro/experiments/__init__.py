"""Experiment harness reproducing every table and figure of the paper."""

from repro.experiments.configs import (
    PAPER_CONFIG_LABELS,
    build_engine,
    build_oram_config,
)
from repro.experiments.metrics import ExperimentResult
from repro.experiments.recursion import (
    RecursionAmortizationRow,
    render_recursion_table,
    run_recursion_amortization,
)
from repro.experiments.runner import compare_configurations, run_configuration
from repro.experiments.scale import ExperimentScale
from repro.experiments.sharded import ShardedRunner, ShardResult

__all__ = [
    "PAPER_CONFIG_LABELS",
    "build_engine",
    "build_oram_config",
    "ExperimentResult",
    "ExperimentScale",
    "RecursionAmortizationRow",
    "run_recursion_amortization",
    "render_recursion_table",
    "run_configuration",
    "compare_configurations",
    "ShardedRunner",
    "ShardResult",
]
