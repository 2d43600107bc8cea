#!/usr/bin/env python
"""XLM-R-style NLP training with the token embedding table behind LAORAM.

The paper's second workload: an NLP model whose token embedding table is
trained on the XNLI corpus.  Token ids follow a Zipfian distribution, which
is the friendliest case for LAORAM (few dummy reads, large speedups).  This
example trains a mean-pooled token-embedding classifier on a synthetic XNLI
dataset with the embedding table behind LAORAM and, for comparison, behind
PathORAM, and reports learning
metrics and path reads per embedding row for every epoch.

Run with ``python examples/xlmr_xnli_training.py``.
"""

from __future__ import annotations

from repro import ORAMConfig
from repro.datasets import SyntheticXNLIDataset
from repro.embedding import (
    EmbeddingTable,
    ObliviousEmbeddingTrainer,
    SecureEmbeddingStore,
    XLMRClassifier,
)
from repro.experiments.configs import build_engine

VOCABULARY = 2048
EMBEDDING_DIM = 16
SEQUENCE_LENGTH = 16
NUM_SAMPLES = 96
EPOCHS = 3


def train(label: str, dataset: SyntheticXNLIDataset) -> list[float]:
    """Train ``EPOCHS`` epochs over the engine ``label`` names; paths per row, per epoch."""
    engine = build_engine(
        label,
        ORAMConfig(num_blocks=VOCABULARY, block_size_bytes=EMBEDDING_DIM * 4, seed=9),
    )
    table = EmbeddingTable(VOCABULARY, EMBEDDING_DIM, seed=1)
    store = SecureEmbeddingStore(engine, table)
    model = XLMRClassifier(embedding_dim=EMBEDDING_DIM, num_classes=3, learning_rate=0.2, seed=0)
    trainer = ObliviousEmbeddingTrainer(store)

    print(f"\n=== {label} ===")
    print(f"{'epoch':>5}  {'loss':>8}  {'accuracy':>8}  {'paths/row':>9}  {'dummy':>6}")
    paths_per_row = []
    for epoch in range(1, EPOCHS + 1):
        report = trainer.train_xlmr_epoch(model, dataset)
        paths_per_row.append(report.path_reads / report.embedding_accesses)
        print(
            f"{epoch:>5}  {report.mean_loss:>8.4f}  {report.accuracy:>8.2%}  "
            f"{paths_per_row[-1]:>9.3f}  {report.dummy_reads:>6}"
        )
    return paths_per_row


def main() -> None:
    dataset = SyntheticXNLIDataset(
        num_samples=NUM_SAMPLES,
        vocabulary_size=VOCABULARY,
        sequence_length=SEQUENCE_LENGTH,
        seed=5,
    )
    print(
        f"Training a token-embedding classifier on {NUM_SAMPLES} synthetic XNLI\n"
        f"samples ({SEQUENCE_LENGTH} tokens each); the {VOCABULARY}-row embedding\n"
        "table is served through PathORAM, then through LAORAM (Fat/S8)."
    )
    pathoram = train("PathORAM", dataset)
    laoram = train("Fat/S8", dataset)
    print(
        f"\nEach epoch performs {NUM_SAMPLES * SEQUENCE_LENGTH * 2} token-embedding"
        "\naccesses in minibatches of 16 sentences: one held fetch, one model"
        "\nstep and one commit per batch, which reads no path.  With the"
        f"\nepoch's plan installed LAORAM's first epoch reads {laoram[0]:.3f} paths"
        f"\nper row against PathORAM's {pathoram[0]:.3f} (1/16 is the floor for"
        "\nsuperblocks of 8; PathORAM fetches a token repeated in a batch once,"
        "\nand the commit writes its paths back); later epochs start where the"
        "\nprevious plan ran out, so their first touches of a row are not yet"
        "\ncoalesced.  The classifier head"
        "\nsteps once a batch on the batch-mean gradient, so the loss falls"
        "\nmore slowly per epoch than per-sentence steps would take it"
        "\n(docs/performance.md, \"The training step\")."
    )


if __name__ == "__main__":
    main()
