"""End-to-end tests of the oblivious embedding trainers."""

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.optim import SparseSGD
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory

from repro.experiments.configs import build_oram_config

from oracle import ObjectLAORAMClient, ObjectPathORAM, build_engine
from oracle.trainer import reference_apply_gradients

EMBED_DIM = 8
TABLE_ROWS = 128


def make_store(use_laoram: bool):
    config = ORAMConfig(num_blocks=TABLE_ROWS, block_size_bytes=EMBED_DIM * 4, seed=31)
    if use_laoram:
        engine = ObjectLAORAMClient(LAORAMConfig(oram=config, superblock_size=4))
    else:
        engine = ObjectPathORAM(config)
    table = EmbeddingTable(TABLE_ROWS, EMBED_DIM, seed=2)
    return SecureEmbeddingStore(engine, table)


def make_dlrm(dataset):
    return DLRMModel(
        num_dense_features=13,
        small_table_sizes=dataset.table_sizes[:-1],
        embedding_dim=EMBED_DIM,
        seed=0,
    )


def record_issued_ids(memory):
    """Log the ids of every request ``memory`` is given, whichever verb."""
    issued = []
    for verb in ("access_many", "write_many", "hold_many", "commit"):
        def logged(ids, *args, _call=getattr(memory, verb), _verb=verb):
            issued.append((_verb, np.array(ids)))
            return _call(ids, *args)
        setattr(memory, verb, logged)
    return issued


class TestApplyGradients:
    def test_repeated_id_takes_the_sum_of_its_gradients(self):
        """A row fetched twice in one request must not lose one of its gradients."""
        store = make_store(use_laoram=False)
        plain = EmbeddingTable(TABLE_ROWS, EMBED_DIM, seed=2)
        trainer = ObliviousEmbeddingTrainer(store, SparseSGD(learning_rate=0.1))
        ids = np.array([5, 9, 5])
        gradients = np.arange(3 * EMBED_DIM, dtype=np.float32).reshape(3, EMBED_DIM) / 10
        rows = store.fetch_rows(ids, hold=True)
        issued = record_issued_ids(store.memory)
        written = trainer.apply_gradients(ids, rows, gradients)
        assert issued == []
        store.update_rows(ids, written)
        assert [(verb, sent.tolist()) for verb, sent in issued] == [("commit", [5, 9, 5])]

        trained = store.fetch_rows(np.array([5, 9]))
        expected = plain.weights[[5, 9]] - 0.1 * np.stack(
            [gradients[0] + gradients[2], gradients[1]]
        )
        assert np.allclose(trained, expected, rtol=0, atol=1e-7)

    def test_repeated_token_in_a_sentence_keeps_every_gradient(self):
        """Token 7 three times in sentence 0 and twice in sentence 1 of one batch:
        its row steps once, on the sum of all five pushes."""
        dataset = SyntheticXNLIDataset(
            num_samples=2, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=6
        )
        dataset.tokens[:] = [[7, 3, 7, 7], [9, 7, 11, 7]]
        store = make_store(use_laoram=True)
        ids = np.array([7, 3, 9, 11])
        before = store.fetch_rows(ids)
        model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
        grads = model.train_step(
            before[[[0, 1, 0, 0], [2, 0, 3, 0]]], dataset.labels, update=False
        ).token_grads[:, 0]
        trainer = ObliviousEmbeddingTrainer(store, SparseSGD(learning_rate=0.1))
        issued = record_issued_ids(store.memory)
        trainer.train_xlmr_epoch(model, dataset)
        assert [(verb, sent.tolist()) for verb, sent in issued] == [
            (verb, [7, 3, 7, 7, 9, 7, 11, 7]) for verb in ("hold_many", "commit")
        ]
        after = store.fetch_rows(ids)
        pushes = np.array([3 * grads[0] + 2 * grads[1], grads[0], grads[1], grads[1]])
        assert np.allclose(after, before - 0.1 * pushes, rtol=0, atol=1e-7)

    @pytest.mark.parametrize(
        "ids, rows, gradients",
        [
            # A gradient row past the ids would be dropped.
            ((3,), (3, EMBED_DIM), (4, EMBED_DIM)),
            # A row past the ids would be committed uninitialised.
            ((2,), (3, EMBED_DIM), (3, EMBED_DIM)),
            ((3,), (3, EMBED_DIM), (3, EMBED_DIM + 1)),
            ((3, 1), (3, EMBED_DIM), (3, EMBED_DIM)),
            ((3,), (3,), (3,)),
        ],
        ids=["a gradient too many", "a row too many", "wider gradients", "2-D ids", "1-D rows"],
    )
    def test_operands_of_other_shapes_are_rejected(self, ids, rows, gradients):
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram=False))
        with pytest.raises(ConfigurationError):
            trainer.apply_gradients(
                np.zeros(ids, dtype=np.int64), np.ones(rows, np.float32),
                np.ones(gradients, np.float32),
            )

    def test_float64_gradients_are_summed_as_float32(self):
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram=False))
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 6, size=40)
        rows = rng.standard_normal((40, EMBED_DIM)).astype(np.float32)
        gradients = rng.standard_normal((40, EMBED_DIM))
        written = trainer.apply_gradients(ids, rows, gradients)
        assert written.dtype == np.float32
        assert np.array_equal(
            written, trainer.apply_gradients(ids, rows, gradients.astype(np.float32))
        )


class TestDLRMTraining:
    @pytest.mark.parametrize("use_laoram", [False, True], ids=["pathoram", "laoram"])
    def test_epoch_produces_finite_metrics(self, use_laoram):
        dataset = SyntheticCriteoDataset(
            num_samples=40, largest_table_rows=TABLE_ROWS, seed=4
        )
        model = make_dlrm(dataset)
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram))
        report = trainer.train_dlrm_epoch(model, dataset, max_samples=40)
        assert np.isfinite(report.mean_loss)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.embedding_accesses >= 40

    def test_laoram_fetches_fewer_paths_than_pathoram(self):
        dataset = SyntheticCriteoDataset(
            num_samples=60, largest_table_rows=TABLE_ROWS, seed=5
        )
        reports = {}
        for use_laoram in (False, True):
            model = make_dlrm(dataset)
            trainer = ObliviousEmbeddingTrainer(make_store(use_laoram))
            reports[use_laoram] = trainer.train_dlrm_epoch(model, dataset, max_samples=60)
        assert reports[True].path_reads < reports[False].path_reads

    @pytest.mark.parametrize(
        "max_samples, batch_size", [(None, 8), (21, 8), (5, 1)],
        ids=["ragged", "max_samples", "batch_of_one"],
    )
    def test_every_sample_trains_whatever_the_batching(self, max_samples, batch_size):
        dataset = SyntheticCriteoDataset(
            num_samples=37, largest_table_rows=TABLE_ROWS, seed=8
        )
        num_samples = 37 if max_samples is None else max_samples
        store = make_store(use_laoram=True)
        issued = record_issued_ids(store.memory)
        trainer = ObliviousEmbeddingTrainer(store)
        report = trainer.train_dlrm_epoch(
            make_dlrm(dataset), dataset, max_samples=max_samples, batch_size=batch_size
        )
        assert report.embedding_accesses == 2 * num_samples
        assert np.isfinite(report.mean_loss)
        assert 0.0 <= report.accuracy <= 1.0
        sizes = [sent.size for verb, sent in issued if verb == "hold_many"]
        full, ragged = divmod(num_samples, batch_size)
        assert sizes == [batch_size] * full + [ragged] * bool(ragged)

    def test_trace_given_to_preprocess_is_the_stream_issued_to_the_engine(self):
        dataset = SyntheticCriteoDataset(
            num_samples=37, largest_table_rows=TABLE_ROWS, seed=9
        )
        store = make_store(use_laoram=True)
        planned = []
        preprocess = store.memory.preprocess

        def logged_preprocess(trace, **kwargs):
            planned.append(np.array(trace))
            return preprocess(trace, **kwargs)

        store.memory.preprocess = logged_preprocess
        issued = record_issued_ids(store.memory)
        ObliviousEmbeddingTrainer(store).train_dlrm_epoch(
            make_dlrm(dataset), dataset, batch_size=8
        )
        assert len(planned) == 1
        assert [verb for verb, _ in issued] == ["hold_many", "commit"] * 5
        reads = np.concatenate([sent for verb, sent in issued if verb == "hold_many"])
        assert np.array_equal(planned[0], reads)
        column = dataset.categorical[:, dataset.largest_table_index]
        assert np.array_equal(reads, column)

    @pytest.mark.parametrize("seed", [0, 4, 10, 11])
    def test_loss_stays_finite_and_falls_at_the_benchmark_sizes(self, seed):
        """512 samples, batch 32, default rates: a step on the batch *sum* of the
        MLP gradients reached NaN on seeds 4, 10 and 11 (seed 11 in epoch one)."""
        rows, dim = 1 << 19, 32
        dataset = SyntheticCriteoDataset(512, largest_table_rows=rows, seed=seed)
        protected = dataset.largest_table_index
        small = tuple(
            size for index, size in enumerate(dataset.table_sizes) if index != protected
        )
        model = DLRMModel(13, small, embedding_dim=dim, seed=seed)
        config = ORAMConfig(num_blocks=rows, block_size_bytes=4 * dim, seed=seed)
        store = SecureEmbeddingStore(InsecureMemory(config), EmbeddingTable(rows, dim, seed=seed))
        trainer = ObliviousEmbeddingTrainer(store)
        losses = [
            trainer.train_dlrm_epoch(model, dataset, batch_size=32).mean_loss
            for _ in range(4)
        ]
        assert np.all(np.isfinite(losses))
        assert losses[-1] < losses[0] < 0.75
        assert np.all(np.isfinite(store.fetch_rows(dataset.categorical[:, protected])))

    def test_invalid_batching_is_rejected(self):
        dataset = SyntheticCriteoDataset(
            num_samples=5, largest_table_rows=TABLE_ROWS, seed=10
        )
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram=False))
        with pytest.raises(ConfigurationError):
            trainer.train_dlrm_epoch(make_dlrm(dataset), dataset, batch_size=0)
        with pytest.raises(ConfigurationError):
            trainer.train_dlrm_epoch(make_dlrm(dataset), dataset, max_samples=0)


class TestTrainingReport:
    @pytest.mark.parametrize("use_laoram", [False, True], ids=["pathoram", "laoram"])
    def test_second_epoch_reports_one_epochs_traffic(self, use_laoram):
        dataset = SyntheticXNLIDataset(
            num_samples=12, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=6
        )
        store = make_store(use_laoram)
        model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
        trainer = ObliviousEmbeddingTrainer(store)
        first = trainer.train_xlmr_epoch(model, dataset)
        second = trainer.train_xlmr_epoch(model, dataset)
        total = store.memory.statistics
        assert first.embedding_accesses == second.embedding_accesses == 12 * 4 * 2
        assert first.path_reads + second.path_reads == total.path_reads
        assert first.dummy_reads + second.dummy_reads == total.dummy_reads
        assert 0 < second.path_reads < total.path_reads
        assert first.simulated_time_s + second.simulated_time_s == pytest.approx(
            store.memory.simulated_time_s
        )

    def test_dlrm_epochs_report_their_own_traffic(self):
        dataset = SyntheticCriteoDataset(
            num_samples=20, largest_table_rows=TABLE_ROWS, seed=4
        )
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram=True))
        model = make_dlrm(dataset)
        reports = [trainer.train_dlrm_epoch(model, dataset, batch_size=8) for _ in range(2)]
        assert [report.embedding_accesses for report in reports] == [40, 40]


class TestTheStepIsTheReferenceStep:
    """The shipped gradient step against the numpy body it replaced
    (``tests/oracle/trainer.py``), over whole epochs: trained rows and
    per-sample losses bit-equal."""

    class ReferenceTrainer(ObliviousEmbeddingTrainer):
        def apply_gradients(self, row_ids, rows, gradients):
            return reference_apply_gradients(self.optimizer, row_ids, rows, gradients)

    def train(self, trainer_class, label, workload):
        rows, dim = 512, (72 if workload == "xlmr" else 8)
        engine = build_engine(
            label, build_oram_config(rows, block_size_bytes=4 * dim, seed=5), fast=True
        )
        store = SecureEmbeddingStore(engine, EmbeddingTable(rows, dim, seed=5))
        trainer = trainer_class(store)
        losses = []
        if workload == "xlmr":
            # 16 sentences of 32 Zipf tokens a step: runs of 1 to 132 rows,
            # summed over a full and a partial block of 64 columns.
            dataset = SyntheticXNLIDataset(
                48, vocabulary_size=rows, sequence_length=32, exponent=1.2, seed=5
            )
            model = XLMRClassifier(dim, seed=5)
            step = model.train_step
            model.train_step = lambda *args: self.logged(losses, step(*args))
            trainer.train_xlmr_epoch(model, dataset)
        else:
            dataset = SyntheticCriteoDataset(256, largest_table_rows=rows, seed=5)
            protected = dataset.largest_table_index
            small = tuple(s for i, s in enumerate(dataset.table_sizes) if i != protected)
            model = DLRMModel(13, small, embedding_dim=dim, seed=5)
            backward = model.backward
            model.backward = lambda *args: self.logged(losses, backward(*args))
            trainer.train_dlrm_epoch(model, dataset, batch_size=32)
        return store.materialize().weights, np.concatenate(losses)

    @staticmethod
    def logged(losses, result):
        losses.append(np.array(result.losses))
        return result

    @pytest.mark.parametrize("workload", ["xlmr", "dlrm"])
    @pytest.mark.parametrize("label", ["Fat/S8", "PathORAM"])
    def test_an_epoch_trains_the_reference_rows_and_losses(self, label, workload):
        shipped = self.train(ObliviousEmbeddingTrainer, label, workload)
        reference = self.train(self.ReferenceTrainer, label, workload)
        for mine, theirs in zip(shipped, reference):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestXLMRTraining:
    def test_epoch_trains_and_counts_token_accesses(self):
        dataset = SyntheticXNLIDataset(
            num_samples=12, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=6
        )
        model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
        trainer = ObliviousEmbeddingTrainer(make_store(True))
        report = trainer.train_xlmr_epoch(model, dataset, max_samples=12)
        assert report.embedding_accesses >= 12 * 4
        assert np.isfinite(report.mean_loss)

    def test_learning_signal_over_epochs(self):
        dataset = SyntheticXNLIDataset(
            num_samples=30, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=7
        )
        model = XLMRClassifier(embedding_dim=EMBED_DIM, learning_rate=0.3, seed=0)
        trainer = ObliviousEmbeddingTrainer(make_store(False))
        first = trainer.train_xlmr_epoch(model, dataset)
        second = trainer.train_xlmr_epoch(model, dataset)
        assert second.mean_loss <= first.mean_loss * 1.05

    @pytest.mark.parametrize(
        "max_samples, batch_size", [(None, 8), (21, 8), (5, 1)],
        ids=["ragged", "max_samples", "batch_of_one"],
    )
    def test_every_sentence_trains_whatever_the_batching(self, max_samples, batch_size):
        dataset = SyntheticXNLIDataset(
            num_samples=37, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=8
        )
        num_samples = 37 if max_samples is None else max_samples
        store = make_store(use_laoram=True)
        planned = []
        preprocess = store.memory.preprocess

        def logged_preprocess(trace, **kwargs):
            planned.append(np.array(trace))
            return preprocess(trace, **kwargs)

        store.memory.preprocess = logged_preprocess
        issued = record_issued_ids(store.memory)
        report = ObliviousEmbeddingTrainer(store).train_xlmr_epoch(
            XLMRClassifier(embedding_dim=EMBED_DIM, seed=0), dataset,
            max_samples=max_samples, batch_size=batch_size,
        )
        assert report.embedding_accesses == 2 * 4 * num_samples
        assert np.isfinite(report.mean_loss)
        assert 0.0 <= report.accuracy <= 1.0
        # One held fetch and its commit per minibatch, and the preprocessor
        # was told exactly the fetches.
        full, ragged = divmod(num_samples, batch_size)
        batches = full + bool(ragged)
        assert [verb for verb, _ in issued] == ["hold_many", "commit"] * batches
        sizes = [sent.size for verb, sent in issued if verb == "hold_many"]
        assert sizes == [4 * batch_size] * full + [4 * ragged] * bool(ragged)
        reads = np.concatenate([sent for verb, sent in issued if verb == "hold_many"])
        assert len(planned) == 1
        assert np.array_equal(planned[0], reads)
        assert np.array_equal(reads, dataset.tokens[:num_samples].reshape(-1))

    def test_invalid_batching_is_rejected(self):
        dataset = SyntheticXNLIDataset(
            num_samples=5, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=10
        )
        model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
        trainer = ObliviousEmbeddingTrainer(make_store(use_laoram=False))
        with pytest.raises(ConfigurationError):
            trainer.train_xlmr_epoch(model, dataset, batch_size=0)
        with pytest.raises(ConfigurationError):
            trainer.train_xlmr_epoch(model, dataset, max_samples=0)
