"""XLM-R-style classifier: a token embedding table feeding a linear head.

The paper's NLP workload trains the XLM-R embedding table on the XNLI task.
For the reproduction the interesting component is the embedding table itself
(262,144 rows of 4 KiB in the paper); the transformer layers above it are
irrelevant to the memory access pattern, so this model uses mean pooling over
token embeddings followed by a softmax classifier.  Token embeddings are
supplied by the caller (fetched through the ORAM) and their gradients are
returned for oblivious write-back, exactly like the DLRM model, and like it
the model is batch-first: every array carries the minibatch of sentences on
its leading axis and one ``train_step`` is one SGD step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng


@dataclass
class XLMRGradients:
    """Per-sentence losses and token-row gradients of one minibatch."""

    token_grads: np.ndarray  # (B, T, d)
    losses: np.ndarray  # (B,)
    correct: np.ndarray  # (B,) bool


class XLMRClassifier:
    """Mean-pooled embedding classifier with a manual softmax/CE backward pass."""

    def __init__(
        self,
        embedding_dim: int,
        num_classes: int = 3,
        learning_rate: float = 0.1,
        seed: int = 0,
    ):
        if embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")
        if num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        rng = make_rng(seed)
        self.embedding_dim = embedding_dim
        self.num_classes = num_classes
        self.learning_rate = learning_rate
        self.weights = (rng.normal(size=(embedding_dim, num_classes)) / np.sqrt(embedding_dim)).astype(np.float32)
        self.bias = np.zeros(num_classes, dtype=np.float32)

    # ------------------------------------------------------------------
    def forward(self, token_embeddings: np.ndarray) -> np.ndarray:
        """Class probabilities ``(B, classes)`` of ``B`` token sequences ``(B, T, d)``."""
        return self._softmax(self._as_batch(token_embeddings).mean(axis=1))

    def train_step(
        self, token_embeddings: np.ndarray, labels: np.ndarray, update: bool = True
    ) -> XLMRGradients:
        """One SGD step on a minibatch of ``B`` sentences of ``T`` tokens.

        The head steps on the batch mean of the per-sentence gradients (as
        :class:`~repro.embedding.dlrm.DLRMModel`'s MLPs do); the returned
        token-row gradients stay per sentence and unscaled, ``dpooled_b / T``
        for every token of sentence ``b``, so a row shared by sentences
        steps on the sum of their pushes when the caller accumulates them.
        A batch of one is plain per-sentence SGD.
        """
        token_embeddings = self._as_batch(token_embeddings)
        batch, seq_len = token_embeddings.shape[:2]
        labels = np.asarray(labels)
        if labels.shape != (batch,) or labels.dtype.kind not in "iu":
            raise ConfigurationError(f"labels must be an integer array of shape ({batch},)")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ConfigurationError("label outside class range")
        pooled = token_embeddings.mean(axis=1)
        probabilities = self._softmax(pooled)
        sentences = np.arange(batch)
        losses = -np.log(probabilities[sentences, labels].astype(np.float64) + 1e-7)
        correct = probabilities.argmax(axis=1) == labels

        dlogits = probabilities
        dlogits[sentences, labels] -= 1.0
        dpooled = dlogits @ self.weights.T
        token_grads = np.repeat((dpooled / seq_len)[:, None, :], seq_len, axis=1)

        if update:
            mean_lr = np.float32(self.learning_rate / batch)
            self.weights -= mean_lr * (pooled.T @ dlogits)
            self.bias -= mean_lr * dlogits.sum(axis=0)
        return XLMRGradients(token_grads=token_grads, losses=losses, correct=correct)

    # ------------------------------------------------------------------
    def _as_batch(self, token_embeddings: np.ndarray) -> np.ndarray:
        token_embeddings = np.asarray(token_embeddings, dtype=np.float32)
        if (
            token_embeddings.ndim != 3
            or 0 in token_embeddings.shape
            or token_embeddings.shape[2] != self.embedding_dim
        ):
            raise ConfigurationError(
                f"token_embeddings must have shape (batch, seq, {self.embedding_dim}), "
                f"got {token_embeddings.shape}"
            )
        return token_embeddings

    def _softmax(self, pooled: np.ndarray) -> np.ndarray:
        logits = pooled @ self.weights + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)
