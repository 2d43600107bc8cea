"""Oblivious embedding trainers: DLRM and XLM-R training over an ORAM store.

The trainers tie the whole system together: they read training samples from
a synthetic dataset, fetch protected embedding rows through a
:class:`~repro.embedding.secure_loader.SecureEmbeddingStore` (i.e. through an
ORAM engine), run the model forward/backward, and write the updated rows back
obliviously.  They also expose the per-epoch access trace, which is exactly
what the LAORAM preprocessor consumes for its lookahead plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.laoram import LookaheadClientMixin
from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.optim import SparseSGD
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TrainingReport:
    """Summary of one training epoch through the oblivious store."""

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

        The protected rows of a whole minibatch are fetched in one request
        (as the trainer GPU caches the batch's entries in its HBM), which is
        exactly the access pattern that lets LAORAM serve a batch from a few
        coalesced paths.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        protected_index = dataset.largest_table_index
        num_samples = dataset.num_samples if max_samples is None else min(
            max_samples, dataset.num_samples
        )
        if num_samples < 1:
            raise ConfigurationError("need at least one training sample")
        # The preprocessor sees the access stream the loop below will really
        # generate: each minibatch fetches its protected rows and then writes
        # them back, so every batch's ids appear twice in a row.
        trace_parts = []
        for start in range(0, num_samples, batch_size):
            stop = min(start + batch_size, num_samples)
            batch_column = dataset.categorical[start:stop, protected_index]
            trace_parts.extend([batch_column, batch_column])
        self._maybe_install_plan(np.concatenate(trace_parts))

        losses = []
        correct = 0
        for start in range(0, num_samples, batch_size):
            stop = min(start + batch_size, num_samples)
            batch_ids = dataset.categorical[start:stop, protected_index]
            rows = self.store.fetch_rows(batch_ids)
            updated_rows = rows.copy()
            for offset, index in enumerate(range(start, stop)):
                sample = dataset.sample(index)
                small_ids = np.delete(sample.categorical, protected_index)
                cache = model.forward(sample.dense, small_ids, rows[offset])
                grads = model.backward(cache, small_ids, sample.label)
                updated_rows[offset] = self.optimizer.update(
                    rows[offset][None, :],
                    grads.protected_row_grad[None, :],
                    batch_ids[offset : offset + 1],
                )[0]
                losses.append(grads.loss)
                if (cache.probability >= 0.5) == bool(sample.label):
                    correct += 1
            self.store.update_rows(batch_ids, updated_rows)
        return self._report(losses, correct, num_samples)

    def train_xlmr_epoch(
        self,
        model: XLMRClassifier,
        dataset: SyntheticXNLIDataset,
        max_samples: int | None = None,
    ) -> TrainingReport:
        """One epoch of XLM-R-style training with token embeddings behind the ORAM."""
        num_samples = dataset.num_samples if max_samples is None else min(
            max_samples, dataset.num_samples
        )
        if num_samples < 1:
            raise ConfigurationError("need at least one training sample")
        # Each sample fetches its token rows and writes them back, so the
        # preprocessor's trace repeats every sample's tokens twice.
        trace_parts = []
        for index in range(num_samples):
            tokens = dataset.tokens[index]
            trace_parts.extend([tokens, tokens])
        self._maybe_install_plan(np.concatenate(trace_parts))

        losses = []
        correct = 0
        for index in range(num_samples):
            sample = dataset.sample(index)
            token_ids = sample.tokens
            rows = self.store.fetch_rows(token_ids)
            result = model.train_step(rows, sample.label)
            updated = self.optimizer.update(rows, result.token_grads, token_ids.tolist())
            self.store.update_rows(token_ids, updated)
            losses.append(result.loss)
            correct += int(result.correct)
        return self._report(losses, correct, num_samples)

    # ------------------------------------------------------------------
    def _maybe_install_plan(self, trace: np.ndarray) -> None:
        """Give a lookahead client the epoch's access trace ahead of time."""
        memory = self.store.memory
        if isinstance(memory, LookaheadClientMixin):
            plan = memory.preprocess(trace, start_index=memory.trace_cursor)
            if memory.statistics.logical_accesses == 0:
                memory.apply_initial_placement(plan)

    def _report(self, losses: list[float], correct: int, num_samples: int) -> TrainingReport:
        stats = self.store.memory.statistics
        return TrainingReport(
            mean_loss=float(np.mean(losses)),
            accuracy=correct / num_samples,
            embedding_accesses=stats.logical_accesses,
            path_reads=stats.path_reads,
            dummy_reads=stats.dummy_reads,
            simulated_time_s=self.store.memory.simulated_time_s,
        )
