"""LAORAM reproduction: look-ahead ORAM for training large embedding tables.

This package reproduces the system described in *"LAORAM: A Look Ahead ORAM
Architecture for Training Large Embedding Tables"* (ISCA 2023) as a pure
Python simulator:

* :mod:`repro.oram` — PathORAM and an insecure baseline;
* :mod:`repro.core` — the LAORAM preprocessor, lookahead plan and client,
  plus the fat-tree storage policy;
* :mod:`repro.datasets` — Permutation, Gaussian, synthetic Kaggle and XNLI
  workload generators;
* :mod:`repro.embedding` — embedding tables, DLRM and XLM-R style models and
  an oblivious trainer;
* :mod:`repro.attacks` — the curious-OS adversary and leakage analysis;
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import LAORAMClient, LAORAMConfig, ORAMConfig
    from repro.datasets import SyntheticKaggleTrace

    config = LAORAMConfig(
        oram=ORAMConfig(num_blocks=4096, fat_tree=True), superblock_size=4
    )
    client = LAORAMClient(config)
    trace = SyntheticKaggleTrace(num_blocks=4096).generate(10_000)
    client.run_trace(trace.addresses)
    stats = client.statistics
    print(stats.path_reads / stats.logical_accesses)
"""

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import FatTreePolicy, ORAMConfig
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AccessOp",
    "ObliviousMemory",
    "ORAMConfig",
    "FatTreePolicy",
    "PathORAM",
    "InsecureMemory",
    "LAORAMConfig",
    "LAORAMClient",
    "Preprocessor",
    "LookaheadPlan",
]
