"""A compact DLRM-style recommendation model with manual numpy gradients.

This is the training substrate for the paper's recommendation workload: a
bottom MLP over dense features, embedding lookups for categorical features,
pairwise dot-product feature interactions, and a top MLP producing a
click-through probability.  Only the *largest* embedding table is interesting
from the privacy standpoint (it is the one served through the ORAM); the
model therefore separates "protected" lookups — supplied by the caller, who
fetched them through a :class:`~repro.embedding.secure_loader.SecureEmbeddingStore`
— from the small tables it keeps in plain client memory.  Those are stacked
into one offset-indexed matrix, as table-batched embeddings do in production
DLRM stacks, so a minibatch's small-table rows are one gather and their
update one scatter, whatever the number of tables.

The model is batch-first: every array carries the minibatch on its leading
axis and one ``forward`` / ``backward`` pair is one SGD step.  The MLP
weights, which every sample of the batch pushes, step on the *mean* of the
per-sample gradients, so a step is never larger than a per-sample one;
embedding rows, which only the samples that looked them up push, step on the
*sum* of those samples' gradients, as per-sample SGD would move them.  A
batch of one is plain per-sample SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng


@dataclass
class DLRMForwardCache:
    """Intermediate activations of one minibatch, needed by the backward pass."""

    dense: np.ndarray  # (B, num_dense)
    bottom_hidden: np.ndarray  # (B, bottom_hidden)
    feature_vectors: np.ndarray  # (B, F, d): bottom out, small rows, protected row
    top_input: np.ndarray  # (B, d + F(F-1)/2)
    top_hidden: np.ndarray  # (B, top_hidden)
    probabilities: np.ndarray  # (B,)


@dataclass
class DLRMGradients:
    """Per-sample losses and protected-row gradients of one minibatch."""

    protected_row_grad: np.ndarray  # (B, d)
    losses: np.ndarray  # (B,)


class DLRMModel:
    """Minimal DLRM: bottom MLP, dot interactions, top MLP, BCE loss."""

    def __init__(
        self,
        num_dense_features: int,
        small_table_sizes: tuple[int, ...],
        embedding_dim: int = 16,
        bottom_hidden_dim: int = 32,
        top_hidden_dim: int = 32,
        learning_rate: float = 0.05,
        seed: int = 0,
    ):
        if num_dense_features < 1:
            raise ConfigurationError("num_dense_features must be >= 1")
        if embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if any(size < 1 for size in small_table_sizes):
            raise ConfigurationError("every small table needs >= 1 row")
        rng = make_rng(seed)
        self.num_dense_features = num_dense_features
        self.embedding_dim = embedding_dim
        self.learning_rate = learning_rate
        # All small tables in one matrix: column t's row r is row
        # small_offsets[t] + r.  Filled table by table with the draws one
        # EmbeddingTable (scale 0.01) per table made, in the same order, so
        # the MLP weights drawn next are the same too.
        self.small_sizes = np.array(small_table_sizes, dtype=np.int64)
        self.small_offsets = np.cumsum(self.small_sizes) - self.small_sizes
        self.small_weights = np.empty(
            (int(self.small_sizes.sum()), embedding_dim), dtype=np.float32
        )
        for offset, size in zip(self.small_offsets, self.small_sizes):
            self.small_weights[offset : offset + size] = (
                rng.normal(size=(size, embedding_dim)) * 0.01
            )
        scale_bottom = 1.0 / np.sqrt(num_dense_features)
        scale_top = 1.0 / np.sqrt(embedding_dim)
        self.w_bottom1 = (rng.normal(size=(num_dense_features, bottom_hidden_dim)) * scale_bottom).astype(np.float32)
        self.b_bottom1 = np.zeros(bottom_hidden_dim, dtype=np.float32)
        self.w_bottom2 = (rng.normal(size=(bottom_hidden_dim, embedding_dim)) * 0.1).astype(np.float32)
        self.b_bottom2 = np.zeros(embedding_dim, dtype=np.float32)
        num_features = 1 + len(small_table_sizes) + 1  # bottom out + small + protected
        num_interactions = num_features * (num_features - 1) // 2
        top_input_dim = embedding_dim + num_interactions
        self.w_top1 = (rng.normal(size=(top_input_dim, top_hidden_dim)) * scale_top).astype(np.float32)
        self.b_top1 = np.zeros(top_hidden_dim, dtype=np.float32)
        self.w_top2 = (rng.normal(size=(top_hidden_dim, 1)) * 0.1).astype(np.float32)
        self.b_top2 = np.zeros(1, dtype=np.float32)
        self._num_features = num_features
        # Feature pairs (i < j) in the order the interactions enter the top MLP.
        self._pair_i, self._pair_j = np.triu_indices(num_features, k=1)

    # ------------------------------------------------------------------
    def forward(
        self,
        dense: np.ndarray,
        small_ids: np.ndarray,
        protected_rows: np.ndarray,
    ) -> DLRMForwardCache:
        """Forward pass for a minibatch of ``B`` samples.

        Args:
            dense: Dense features, shape ``(B, num_dense_features)``.
            small_ids: One categorical id per small (unprotected) table and
                sample, integer array of shape ``(B, num_small_tables)``.
            protected_rows: Embedding vector of each sample's protected-table
                id, shape ``(B, embedding_dim)``, fetched obliviously by the
                caller.
        """
        dense = self._as_matrix(dense, "dense", self.num_dense_features)
        batch = dense.shape[0]
        small_rows = self._small_rows(small_ids, batch)
        protected_rows = self._as_matrix(protected_rows, "protected_rows", self.embedding_dim)
        if protected_rows.shape[0] != batch:
            raise ConfigurationError("dense and protected_rows disagree on the batch size")

        hidden = np.maximum(dense @ self.w_bottom1 + self.b_bottom1, 0.0)
        features = np.empty((batch, self._num_features, self.embedding_dim), dtype=np.float32)
        features[:, 0] = hidden @ self.w_bottom2 + self.b_bottom2
        features[:, 1:-1] = self.small_weights[small_rows]
        features[:, -1] = protected_rows

        # (B, F, F); matmul is faster on a contiguous right operand than on
        # the transposed view, and gives the same result.
        gram = features @ np.ascontiguousarray(features.transpose(0, 2, 1))
        top_input = np.concatenate(
            [features[:, 0], gram[:, self._pair_i, self._pair_j]], axis=1
        )
        top_hidden = np.maximum(top_input @ self.w_top1 + self.b_top1, 0.0)
        logits = (top_hidden @ self.w_top2[:, 0] + self.b_top2[0]).astype(np.float64)
        return DLRMForwardCache(
            dense=dense,
            bottom_hidden=hidden,
            feature_vectors=features,
            top_input=top_input,
            top_hidden=top_hidden,
            probabilities=1.0 / (1.0 + np.exp(-logits)),
        )

    def backward(
        self,
        cache: DLRMForwardCache,
        small_ids: np.ndarray,
        labels: np.ndarray,
        update: bool = True,
    ) -> DLRMGradients:
        """Backward pass (and optional in-place SGD step) for a minibatch.

        The MLP weights step on the batch mean of the per-sample gradients,
        small-table rows on the sum over the samples that hit them.  Returns
        each sample's loss and its (unscaled) gradient with respect to its
        protected embedding row, which the caller writes back through the ORAM.
        """
        prob = cache.probabilities
        batch = prob.shape[0]
        small_rows = self._small_rows(small_ids, batch)
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (batch,):
            raise ConfigurationError(f"labels must have shape ({batch},)")
        eps = 1e-7
        losses = -(labels * np.log(prob + eps) + (1.0 - labels) * np.log(1.0 - prob + eps))
        dlogit = (prob - labels).astype(np.float32)  # (B,)

        # Top MLP.
        dw_top2 = cache.top_hidden.T @ dlogit[:, None]
        db_top2 = dlogit.sum(keepdims=True)
        dtop_hidden_pre = (dlogit[:, None] * self.w_top2[:, 0]) * (cache.top_hidden > 0)
        dw_top1 = cache.top_input.T @ dtop_hidden_pre
        db_top1 = dtop_hidden_pre.sum(axis=0)
        dtop_input = dtop_hidden_pre @ self.w_top1.T

        # Interactions: d(v_i . v_j)/dv_i = v_j, so with G the symmetric
        # matrix of interaction gradients dV = (G + G^T) V for every sample.
        d = self.embedding_dim
        pair_grads = np.zeros((batch, self._num_features, self._num_features), dtype=np.float32)
        pair_grads[:, self._pair_i, self._pair_j] = dtop_input[:, d:]
        dfeatures = (pair_grads + pair_grads.transpose(0, 2, 1)) @ cache.feature_vectors
        dbottom_out = dtop_input[:, :d] + dfeatures[:, 0]
        dprotected = dfeatures[:, -1].copy()

        if update:
            # Bottom MLP.
            dw_bottom2 = cache.bottom_hidden.T @ dbottom_out
            dhidden_pre = (dbottom_out @ self.w_bottom2.T) * (cache.bottom_hidden > 0)
            dw_bottom1 = cache.dense.T @ dhidden_pre

            lr = np.float32(self.learning_rate)
            mean_lr = lr / np.float32(batch)
            self.w_top2 -= mean_lr * dw_top2
            self.b_top2 -= mean_lr * db_top2
            self.w_top1 -= mean_lr * dw_top1
            self.b_top1 -= mean_lr * db_top1
            self.w_bottom2 -= mean_lr * dw_bottom2
            self.b_bottom2 -= mean_lr * dbottom_out.sum(axis=0)
            self.w_bottom1 -= mean_lr * dw_bottom1
            self.b_bottom1 -= mean_lr * dhidden_pre.sum(axis=0)
            # One scatter over the flat matrix (1-D ufunc.at is several times
            # faster than 2-D): an id repeated within the batch takes every
            # sample's gradient, in sample order as per-table updates would.
            elements = (small_rows[:, :, None] * d + np.arange(d)).ravel()
            np.subtract.at(
                self.small_weights.reshape(-1), elements, (lr * dfeatures[:, 1:-1]).ravel()
            )

        return DLRMGradients(protected_row_grad=dprotected, losses=losses)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_matrix(values: np.ndarray, name: str, width: int) -> np.ndarray:
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != width:
            raise ConfigurationError(
                f"{name} must have shape (batch, {width}), got {values.shape}"
            )
        return values

    def _small_rows(self, small_ids: np.ndarray, batch: int) -> np.ndarray:
        """Rows of ``small_weights`` that a ``(B, T)`` batch of small ids names."""
        small_ids = np.asarray(small_ids)
        if small_ids.dtype.kind not in "iu":
            raise ConfigurationError("small_ids must be an integer array")
        if small_ids.shape != (batch, self.small_sizes.size):
            raise ConfigurationError(
                f"small_ids must have shape ({batch}, {self.small_sizes.size}), "
                f"got {small_ids.shape}"
            )
        # uint64 ids past int64's range wrap negative and are caught here too.
        ids = small_ids.astype(np.int64, copy=False)
        if ids.size and (ids.min() < 0 or (ids >= self.small_sizes).any()):
            raise ConfigurationError("small id outside its table")
        return ids + self.small_offsets
