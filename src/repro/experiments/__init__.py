"""Experiment harness reproducing every table and figure of the paper."""

from repro.experiments.configs import (
    PAPER_CONFIG_LABELS,
    build_engine,
    build_oram_config,
)
from repro.experiments.matrix import Cell, ExperimentResult, ReplayMatrix
from repro.experiments.scale import ExperimentScale
from repro.experiments.sharded import ShardedRunner, ShardResult

__all__ = [
    "PAPER_CONFIG_LABELS",
    "build_engine",
    "build_oram_config",
    "ExperimentResult",
    "ExperimentScale",
    "Cell",
    "ReplayMatrix",
    "ShardedRunner",
    "ShardResult",
]
