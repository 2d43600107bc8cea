"""Oblivious training runs on the fast engines with the lookahead plan driving it.

The fast LAORAM client is the decision-for-decision twin of the reference
client, so a whole training run — two epochs, model updates included — must
agree on every report, counter and trained weight, and neither backend may
finish an epoch without a plan installed (the gate that used to test for the
reference class let the fast client degrade to plain PathORAM silently).
"""

import numpy as np
import pytest

from repro.datasets.kaggle import NUM_DENSE_FEATURES, SyntheticCriteoDataset
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.experiments.configs import build_engine, build_oram_config

ROWS = 512
DIM = 8
LABELS = ["Fat/S4", "Fat/S8", "Normal/S8"]
SEEDS = [0, 7]


def _xlmr_run(label, seed, fast, sequence_length=12):
    # 12 tokens: fetches and write-backs straddle the 8-row bin boundaries.
    dataset = SyntheticXNLIDataset(
        10, vocabulary_size=ROWS, sequence_length=sequence_length, exponent=1.2,
        seed=seed,
    )
    model = XLMRClassifier(DIM, seed=seed)
    return _train(
        label, seed, fast, lambda trainer: trainer.train_xlmr_epoch(model, dataset)
    )


def _dlrm_run(
    label, seed, fast, samples=48, rows=ROWS, max_samples=None, batch_size=8
):
    dataset = SyntheticCriteoDataset(samples, largest_table_rows=rows, seed=seed)
    protected = dataset.largest_table_index
    small = tuple(
        size for index, size in enumerate(dataset.table_sizes) if index != protected
    )
    model = DLRMModel(NUM_DENSE_FEATURES, small, embedding_dim=DIM, seed=seed)
    return _train(
        label,
        seed,
        fast,
        lambda trainer: trainer.train_dlrm_epoch(
            model, dataset, max_samples=max_samples, batch_size=batch_size
        ),
        rows=rows,
    )


def _train(label, seed, fast, epoch, rows=ROWS):
    """Two consecutive epochs; returns reports, counters, plan and weights."""
    engine = build_engine(
        label, build_oram_config(rows, block_size_bytes=4 * DIM, seed=seed), fast=fast
    )
    store = SecureEmbeddingStore(engine, EmbeddingTable(rows, DIM, seed=seed))
    trainer = ObliviousEmbeddingTrainer(store)
    reports = []
    plans = []
    for _ in range(2):
        reports.append(epoch(trainer))
        plans.append(getattr(engine, "plan", None))
    statistics = engine.statistics
    return reports, plans, statistics, store.materialize().weights


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("run", [_xlmr_run, _dlrm_run], ids=["xlmr", "dlrm"])
def test_fast_and_reference_training_agree(run, label, seed):
    fast_reports, fast_plans, fast_stats, fast_weights = run(label, seed, fast=True)
    ref_reports, ref_plans, ref_stats, ref_weights = run(label, seed, fast=False)
    assert all(plan is not None for plan in fast_plans + ref_plans)
    assert fast_plans[0] is not fast_plans[1]
    assert fast_reports == ref_reports
    assert fast_stats == ref_stats
    assert np.array_equal(fast_weights, ref_weights)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run", [_xlmr_run, _dlrm_run], ids=["xlmr", "dlrm"])
def test_oblivious_training_learns_exactly_what_insecure_training_does(run, seed):
    """The engine moves rows, it never changes them: same losses, same trained rows."""
    fast_reports, _, _, fast_weights = run("Fat/S8", seed, fast=True)
    ref_reports, _, _, ref_weights = run("Insecure", seed, fast=False)
    for fast, ref in zip(fast_reports, ref_reports):
        assert (fast.mean_loss, fast.accuracy) == (ref.mean_loss, ref.accuracy)
        assert fast.embedding_accesses == ref.embedding_accesses
    assert np.array_equal(fast_weights, ref_weights)


@pytest.mark.parametrize("label", LABELS)
def test_plan_coalesces_a_superblock_into_about_one_path(label):
    """With the plan installed an epoch reads ~1 path per bin, not ~1 per row."""
    reports, _, _, _ = _xlmr_run(label, seed=3, fast=True, sequence_length=16)
    superblock_size = int(label.rpartition("/S")[2])
    first = reports[0]
    assert first.path_reads <= 1.25 * first.embedding_accesses / superblock_size


def test_a_second_epoch_starting_off_a_superblock_boundary_stays_coalesced():
    """2 x 510 accesses leave epoch 2 starting four rows into a superblock.

    Its plan must be cut where its bins are executed — on the global
    boundaries — or every executed bin straddles two planned ones for the
    whole epoch (1.3x an aligned second epoch's path reads; 1.07x now, the
    rest being the half bins at the two ends of each 32-row request).
    """
    def second_epoch(max_samples, fast=True):
        reports, _, statistics, _ = _dlrm_run(
            "Fat/S8", 0, fast, samples=512, rows=4096,
            max_samples=max_samples, batch_size=32,
        )
        assert reports[0].embedding_accesses == 2 * max_samples
        return reports[1].path_reads / reports[1].embedding_accesses, statistics

    aligned, _ = second_epoch(512)
    shifted, fast_statistics = second_epoch(510)
    assert shifted <= 1.15 * aligned
    assert second_epoch(510, fast=False) == (shifted, fast_statistics)
