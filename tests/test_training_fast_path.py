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
from repro.experiments.configs import build_oram_config

from oracle import build_engine, engine_state

ROWS = 512
DIM = 8
LABELS = ["Fat/S4", "Fat/S8", "Normal/S8"]
SEEDS = [0, 7]


def _xlmr_run(
    label, seed, fast, sequence_length=12, samples=10, max_samples=None, batch_size=3
):
    # 3 x 12 tokens: fetches and write-backs straddle the 8-row bin
    # boundaries, and the tenth sentence is a ragged one-sentence batch.
    dataset = SyntheticXNLIDataset(
        samples, vocabulary_size=ROWS, sequence_length=sequence_length, exponent=1.2,
        seed=seed,
    )
    model = XLMRClassifier(DIM, seed=seed)
    return Run(
        label,
        seed,
        fast,
        lambda trainer: trainer.train_xlmr_epoch(
            model, dataset, max_samples=max_samples, batch_size=batch_size
        ),
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
    return Run(
        label,
        seed,
        fast,
        lambda trainer: trainer.train_dlrm_epoch(
            model, dataset, max_samples=max_samples, batch_size=batch_size
        ),
        rows=rows,
    )


class Run:
    """What two consecutive epochs left behind."""

    def __init__(self, label, seed, fast, epoch, rows=ROWS):
        engine = build_engine(
            label, build_oram_config(rows, block_size_bytes=4 * DIM, seed=seed), fast=fast
        )
        store = SecureEmbeddingStore(engine, EmbeddingTable(rows, DIM, seed=seed))
        trainer = ObliviousEmbeddingTrainer(store)
        # Statistics, clock, position map, stash in order, held paths, tree
        # slots (the insecure baseline has none of them): after each epoch,
        # and in each epoch's first step while its rows are held.
        tree = hasattr(engine, "position_map")
        self.reports, self.plans, self.bins, self.states, self.held_states = [], [], [], [], []
        update_rows = store.update_rows

        def commit(ids, values):
            if tree and len(self.held_states) == len(self.states):
                self.held_states.append(engine_state(engine))
            update_rows(ids, values)

        store.update_rows = commit
        for _ in range(2):
            self.reports.append(epoch(trainer))
            self.plans.append(getattr(engine, "plan", None))
            self.bins.append(
                (getattr(engine, "bins_by_position", 0), getattr(engine, "bins_by_lookup", 0))
            )
            self.states.append(engine_state(engine) if tree else None)
        self.statistics = engine.statistics
        self.state = self.states[-1]
        self.weights = store.materialize().weights


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("run", [_xlmr_run, _dlrm_run], ids=["xlmr", "dlrm"])
def test_fast_and_reference_training_agree(run, label, seed):
    fast, reference = run(label, seed, fast=True), run(label, seed, fast=False)
    assert all(plan is not None for plan in fast.plans + reference.plans)
    assert fast.plans[0] is not fast.plans[1]
    # The reference store installed its own plan each epoch, the window the
    # shipped store planned, with the same bin leaves.
    assert reference.plans[0] is not reference.plans[1]
    for mine, theirs in zip(reference.plans, fast.plans):
        assert mine.start_index == theirs.start_index
        assert np.array_equal(mine.addresses, theirs.addresses)
        assert np.array_equal(mine.bin_leaves, theirs.bin_leaves)
    assert fast.reports == reference.reports
    assert fast.states == reference.states
    assert fast.held_states == reference.held_states
    assert all(state["held_paths"] for state in reference.held_states)
    assert np.array_equal(fast.weights, reference.weights)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run", [_xlmr_run, _dlrm_run], ids=["xlmr", "dlrm"])
def test_oblivious_training_learns_exactly_what_insecure_training_does(run, seed):
    """The engine moves rows, it never changes them: same losses, same trained rows."""
    oblivious, insecure = run("Fat/S8", seed, fast=True), run("Insecure", seed, fast=False)
    for fast, ref in zip(oblivious.reports, insecure.reports):
        assert (fast.mean_loss, fast.accuracy) == (ref.mean_loss, ref.accuracy)
        assert fast.embedding_accesses == ref.embedding_accesses
    assert np.array_equal(oblivious.weights, insecure.weights)


@pytest.mark.parametrize("label", LABELS)
def test_plan_coalesces_a_superblock_into_about_one_path(label):
    """With the plan installed an epoch reads ~1 path per bin, not ~1 per row."""
    run = _xlmr_run(label, seed=3, fast=True, sequence_length=16)
    superblock_size = int(label.rpartition("/S")[2])
    first = run.reports[0]
    assert first.path_reads <= 1.25 * first.embedding_accesses / superblock_size


def test_a_second_epoch_starting_off_a_superblock_boundary_stays_coalesced():
    """2 x 510 accesses leave epoch 2 starting four rows into a superblock.

    Its plan must be cut where its bins are executed — on the global
    boundaries — or every executed bin straddles two planned ones for the
    whole epoch (1.3x an aligned second epoch's path reads; 1.07x now, the
    rest being the half bins at the two ends of each 32-row request).
    """
    def second_epoch(max_samples, fast=True):
        run = _dlrm_run(
            "Fat/S8", 0, fast, samples=512, rows=4096,
            max_samples=max_samples, batch_size=32,
        )
        reports = run.reports
        assert reports[0].embedding_accesses == 2 * max_samples
        return reports[1].path_reads / reports[1].embedding_accesses, run.statistics

    aligned, _ = second_epoch(512)
    shifted, fast_statistics = second_epoch(510)
    assert shifted <= 1.15 * aligned
    assert second_epoch(510, fast=False) == (shifted, fast_statistics)


# ----------------------------------------------------------------------
# No silent fallback: a trainer's bins take the plan's remaps by position
# ----------------------------------------------------------------------
#: (run, keyword arguments): minibatches that end on the 8-row superblock
#: boundaries — whole batches, a ragged last batch, ``max_samples`` cutting
#: a batch short — over two consecutive epochs.
ALIGNED_EPOCHS = [
    (_xlmr_run, dict(sequence_length=16, samples=10, batch_size=4)),
    (_xlmr_run, dict(sequence_length=16, samples=10, batch_size=4, max_samples=7)),
    (_xlmr_run, dict(sequence_length=4, samples=22, batch_size=8)),
    (_dlrm_run, dict(samples=48, batch_size=16)),
    (_dlrm_run, dict(samples=40, batch_size=16)),
    (_dlrm_run, dict(samples=48, batch_size=16, max_samples=24)),
]


@pytest.mark.parametrize("label", ["Fat/S8", "Normal/S4"])
@pytest.mark.parametrize(
    "run, kwargs", ALIGNED_EPOCHS, ids=[
        "xlmr-ragged", "xlmr-max_samples", "xlmr-short-sentences",
        "dlrm-whole", "dlrm-ragged", "dlrm-max_samples",
    ],
)
def test_a_trainer_epoch_is_served_by_position(run, kwargs, label):
    """The trainer announces exactly the ids it then issues, so every bin of
    both epochs takes the plan's precomputed remaps: a trace that drifted
    from the issued ids would still train, bit-equal to the reference, and
    only lose its coalescing (the bug PR 13 found by accident)."""
    result = run(label, 0, fast=True, **kwargs)
    # A step's rows are held once and committed once: half the accesses
    # run on the kernel.
    held = [report.embedding_accesses // 2 for report in result.reports]
    assert all(count % 8 == 0 for count in held)
    size = int(label.rpartition("/S")[2])
    assert result.bins == [(count // size, 0) for count in held]
    reference = run(label, 0, fast=False, **kwargs)
    assert reference.bins == [(0, count // size) for count in held]
    assert reference.state == {key: result.state[key] for key in reference.state}


def test_requests_ending_inside_a_superblock_show_up_as_lookups():
    """36-row requests end mid-bin: the first tail is looked up, which drops
    the plan to lookups for the rest of the epoch — visibly.  An epoch holds
    36 + 36 + 36 + 12 rows: four whole bins by position, then 1 + 5 + 5 + 2
    bins by lookup."""
    result = _xlmr_run("Fat/S8", 0, fast=True)
    assert result.bins == [(4, 13)] * 2
