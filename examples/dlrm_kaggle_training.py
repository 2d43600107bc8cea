#!/usr/bin/env python
"""DLRM training with the large embedding table protected by LAORAM.

The scenario from the paper's introduction: a recommendation model (DLRM)
trains on click-through data whose categorical features index an embedding
table; the table lives in untrusted CPU memory, so the row addresses must be
hidden.  This example trains a small DLRM on a synthetic Criteo-style
dataset twice — once with the largest table behind PathORAM and once behind
LAORAM — and reports both the
learning metrics (identical data in, identical learning out) and the
memory-access cost in path reads per embedding row (where LAORAM wins).

Run with ``python examples/dlrm_kaggle_training.py``.
"""

from __future__ import annotations

from repro import ORAMConfig
from repro.datasets import SyntheticCriteoDataset
from repro.embedding import (
    DLRMModel,
    EmbeddingTable,
    ObliviousEmbeddingTrainer,
    SecureEmbeddingStore,
)
from repro.experiments.configs import build_engine

PROTECTED_ROWS = 2048
EMBEDDING_DIM = 16
NUM_SAMPLES = 256
BATCH_SIZE = 32


def train_once(label: str) -> float:
    """Train one epoch over the engine ``label`` names; path reads per row."""
    dataset = SyntheticCriteoDataset(
        num_samples=NUM_SAMPLES, largest_table_rows=PROTECTED_ROWS, seed=7
    )
    oram_config = ORAMConfig(
        num_blocks=PROTECTED_ROWS, block_size_bytes=EMBEDDING_DIM * 4, seed=11
    )
    engine = build_engine(label, oram_config)

    table = EmbeddingTable(PROTECTED_ROWS, EMBEDDING_DIM, seed=3)
    store = SecureEmbeddingStore(engine, table)
    model = DLRMModel(
        num_dense_features=13,
        small_table_sizes=dataset.table_sizes[:-1],
        embedding_dim=EMBEDDING_DIM,
        seed=0,
    )
    trainer = ObliviousEmbeddingTrainer(store)
    report = trainer.train_dlrm_epoch(model, dataset, batch_size=BATCH_SIZE)

    paths_per_row = report.path_reads / report.embedding_accesses
    print(f"\n=== {label} ===")
    print(f"training loss:            {report.mean_loss:.4f}")
    print(f"training accuracy:        {report.accuracy:.2%}")
    print(f"embedding rows accessed:  {report.embedding_accesses}")
    print(f"ORAM path fetches:        {report.path_reads}")
    print(f"path reads per row:       {paths_per_row:.3f}")
    print(f"dummy fetches:            {report.dummy_reads}")
    print(f"simulated access time:    {report.simulated_time_s * 1e3:.2f} ms")
    return paths_per_row


def main() -> None:
    print(
        "Training a small DLRM on synthetic Criteo data; the largest embedding\n"
        f"table ({PROTECTED_ROWS} rows) is served through an ORAM engine."
    )
    pathoram = train_once("PathORAM")
    laoram = train_once("Fat/S8")
    print(
        "\nThe two runs see identical embedding data, so the learning metrics\n"
        f"match; LAORAM reads {laoram:.3f} paths per row against PathORAM's\n"
        f"{pathoram:.3f} because the preprocessor coalesces each minibatch's\n"
        "rows onto shared paths.  A row counts twice, held and committed, and\n"
        "only the hold reads paths, so 1/16 is the floor for superblocks of 8;\n"
        "PathORAM too reads less than a path per fetched row: a minibatch\n"
        "fetches a repeated row once, and the commit writes its paths back\n"
        "before the next one (docs/performance.md, \"The training step\")."
    )


if __name__ == "__main__":
    main()
