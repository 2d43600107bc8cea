"""Workload generators: Permutation, Gaussian, synthetic Kaggle and XNLI traces."""

from repro.datasets.base import AccessTrace, TraceStatistics
from repro.datasets.gaussian import GaussianTraceGenerator
from repro.datasets.kaggle import SyntheticCriteoDataset, SyntheticKaggleTrace
from repro.datasets.permutation import PermutationTraceGenerator
from repro.datasets.registry import available_traces, make_trace
from repro.datasets.xnli import SyntheticXNLIDataset, SyntheticXNLITrace
from repro.datasets.zipf import ZipfTraceGenerator

__all__ = [
    "AccessTrace",
    "TraceStatistics",
    "GaussianTraceGenerator",
    "PermutationTraceGenerator",
    "ZipfTraceGenerator",
    "SyntheticKaggleTrace",
    "SyntheticCriteoDataset",
    "SyntheticXNLITrace",
    "SyntheticXNLIDataset",
    "available_traces",
    "make_trace",
]
