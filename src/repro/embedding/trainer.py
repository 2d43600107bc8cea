"""Oblivious embedding trainers: DLRM and XLM-R training over an ORAM store.

The trainers tie the whole system together: they read training samples from
a synthetic dataset, fetch protected embedding rows through a
:class:`~repro.embedding.secure_loader.SecureEmbeddingStore` (i.e. through an
ORAM engine), run the model forward/backward, and commit the updated rows
with no second request: a step holds the rows it fetched until it commits
them (:meth:`~repro.oram.base.ObliviousMemory.hold_many`).  They also
expose the per-epoch access trace, which is exactly what the LAORAM
preprocessor consumes for its lookahead plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.optim import SparseSGD
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficSnapshot
from repro.oram.write_back import group_sum


@dataclass(frozen=True)
class TrainingReport:
    """Summary of one training epoch through the oblivious store.

    The traffic fields count that epoch only, whatever the engine served
    before it.
    """

    mean_loss: float
    accuracy: float
    embedding_accesses: int
    path_reads: int
    dummy_reads: int
    simulated_time_s: float


class ObliviousEmbeddingTrainer:
    """Trains a model whose largest embedding table is served by an ORAM."""

    def __init__(self, store: SecureEmbeddingStore, optimizer: SparseSGD | None = None):
        self.store = store
        self.optimizer = optimizer if optimizer is not None else SparseSGD()

    # ------------------------------------------------------------------
    def train_dlrm_epoch(
        self,
        model: DLRMModel,
        dataset: SyntheticCriteoDataset,
        max_samples: int | None = None,
        batch_size: int = 16,
    ) -> TrainingReport:
        """One epoch of DLRM training with the largest table behind the ORAM.

        The protected rows of a whole minibatch are fetched and held in one
        request (as the trainer GPU caches the batch's entries in its HBM),
        trained in one model step and committed with no second request,
        which is exactly the access pattern that lets LAORAM serve a batch
        from a few coalesced paths.  The commit runs in a ``finally``: a
        step that raises commits the fetched rows unchanged, so the bus
        sees the same step either way.
        """
        protected_index = dataset.largest_table_index
        batches = list(dataset.batches(batch_size, max_samples))
        epoch_start = self._traffic()
        # The preprocessor sees the access stream the loop below will really
        # generate: each minibatch's protected ids, once.
        self._maybe_install_plan(np.concatenate([
            categorical[:, protected_index] for _, categorical, _ in batches
        ]))

        losses = []
        correct = 0
        for dense, categorical, labels in batches:
            batch_ids = categorical[:, protected_index]
            small_ids = np.delete(categorical, protected_index, axis=1)
            rows = written = self.store.fetch_rows(batch_ids, hold=True)
            try:
                cache = model.forward(dense, small_ids, rows)
                grads = model.backward(cache, small_ids, labels)
                written = self.apply_gradients(batch_ids, rows, grads.protected_row_grad)
            finally:
                self.store.update_rows(batch_ids, written)
            losses.append(grads.losses)
            correct += int(np.count_nonzero((cache.probabilities >= 0.5) == (labels != 0)))
        return self._report(np.concatenate(losses), correct, epoch_start)

    def train_xlmr_epoch(
        self,
        model: XLMRClassifier,
        dataset: SyntheticXNLIDataset,
        max_samples: int | None = None,
        batch_size: int = 16,
    ) -> TrainingReport:
        """One epoch of XLM-R-style training with token embeddings behind the ORAM.

        As on DLRM, a minibatch is one store round trip: the token rows of
        ``batch_size`` sentences are fetched and held in one request,
        trained in one model step and committed, in a ``finally``.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        num_samples = dataset.num_samples if max_samples is None else min(
            max_samples, dataset.num_samples
        )
        if num_samples < 1:
            raise ConfigurationError("need at least one training sample")
        batches = [
            range(start, min(start + batch_size, num_samples))
            for start in range(0, num_samples, batch_size)
        ]
        epoch_start = self._traffic()
        # Each minibatch's token ids, once: the step fetches and holds them.
        self._maybe_install_plan(np.concatenate([
            dataset.tokens[batch.start : batch.stop].reshape(-1) for batch in batches
        ]))

        losses = []
        correct = 0
        for batch in batches:
            samples = [dataset.sample(index) for index in batch]
            tokens = np.stack([sample.tokens for sample in samples])
            token_ids = tokens.reshape(-1)
            rows = written = self.store.fetch_rows(token_ids, hold=True)
            try:
                result = model.train_step(
                    rows.reshape(*tokens.shape, -1),
                    np.array([sample.label for sample in samples]),
                )
                written = self.apply_gradients(
                    token_ids, rows, result.token_grads.reshape(rows.shape)
                )
            finally:
                self.store.update_rows(token_ids, written)
            losses.append(result.losses)
            correct += int(np.count_nonzero(result.correct))
        return self._report(np.concatenate(losses), correct, epoch_start)

    def apply_gradients(
        self, row_ids: np.ndarray, rows: np.ndarray, gradients: np.ndarray
    ) -> np.ndarray:
        """One optimizer step on the fetched ``rows``; returns the rows to commit.

        A row fetched several times in one request (a hot Criteo id shared
        by samples of a minibatch, a token repeated in a sentence or shared
        by sentences of a minibatch) steps once on the sum of its
        occurrences' gradients, and every occurrence carries that value, so
        the commit names exactly the ids the fetch held.  ``row_ids`` is
        one-dimensional and ``rows`` and ``gradients`` are ``(len(row_ids),
        dim)``, else ``ConfigurationError``; the gradients are summed as
        float32.

        One stable argsort groups the step: equal ids are adjacent in
        ``order``, each run starts where the sorted id changes, its first
        entry is the row that steps, and ``inverse`` maps every occurrence
        to its run.  ``write_back.group_sum`` sums each run's gradients in
        ``numpy.add.reduceat``'s order, bit for bit, reading them through
        ``order`` where a gather would copy them first.
        """
        ids = np.asarray(row_ids)
        rows = np.asarray(rows)
        gradients = np.ascontiguousarray(gradients, dtype=np.float32)
        if (
            ids.ndim != 1 or rows.ndim != 2
            or rows.shape != gradients.shape or len(rows) != ids.size
        ):
            raise ConfigurationError(
                f"apply_gradients takes 1-D ids and (len(ids), dim) rows and gradients, "
                f"got ids {ids.shape}, rows {rows.shape} and gradients {gradients.shape}"
            )
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        run_start = np.empty(ids.size, dtype=bool)
        run_start[:1] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(run_start) - 1
        summed = np.empty((starts.size, gradients.shape[1]), dtype=np.float32)
        group_sum(gradients, order, starts, summed)
        return self.optimizer.update(rows[order[starts]], summed)[inverse]

    # ------------------------------------------------------------------
    def _maybe_install_plan(self, trace: np.ndarray) -> None:
        """Give a lookahead client the epoch's access trace ahead of time.

        A lookahead client is one with a public ``preprocess``; every other
        engine trains without a plan.
        """
        memory = self.store.memory
        preprocess = getattr(memory, "preprocess", None)
        if preprocess is not None:
            plan = preprocess(trace, start_index=memory.trace_cursor)
            if memory.statistics.logical_accesses == 0:
                memory.apply_initial_placement(plan)

    def _traffic(self) -> tuple[TrafficSnapshot, float]:
        memory = self.store.memory
        return memory.statistics, memory.simulated_time_s

    def _report(
        self, losses, correct: int, epoch_start: tuple[TrafficSnapshot, float]
    ) -> TrainingReport:
        before, time_before = epoch_start
        after, time_after = self._traffic()
        return TrainingReport(
            mean_loss=float(np.mean(losses)),
            accuracy=correct / len(losses),
            embedding_accesses=after.logical_accesses - before.logical_accesses,
            path_reads=after.path_reads - before.path_reads,
            dummy_reads=after.dummy_reads - before.dummy_reads,
            simulated_time_s=time_after - time_before,
        )
