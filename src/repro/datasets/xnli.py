"""Synthetic XNLI workload used in place of the real corpus.

The paper's NLP evaluation trains the XLM-R embedding table (262,144 rows of
4 KiB) on the XNLI cross-lingual NLI corpus.  Token frequencies in natural
language are Zipfian, so the synthetic replacement draws token ids from a
Zipf distribution over the same vocabulary size; the resulting repetition
rate is what gives LAORAM its larger advantage on XNLI versus Kaggle
(Table II shows XNLI incurs the fewest dummy reads).

* :class:`SyntheticXNLITrace` — raw token-id access stream for ORAM studies.
* :class:`SyntheticXNLIDataset` — premise/hypothesis token sequences with
  3-way entailment labels for the end-to-end XLM-R-style example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import AccessTrace
from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng

#: XLM-R vocabulary size used by the paper's embedding-table configuration.
XLMR_VOCABULARY_SIZE = 262_144

#: XNLI is a 3-way classification task (entailment / neutral / contradiction).
NUM_XNLI_CLASSES = 3


class SyntheticXNLITrace:
    """Zipfian token-access stream over the XLM-R vocabulary."""

    def __init__(
        self,
        vocabulary_size: int = XLMR_VOCABULARY_SIZE,
        exponent: float = 1.2,
        seed: int = 0,
    ):
        if vocabulary_size < 2:
            raise ConfigurationError("vocabulary_size must be >= 2")
        if exponent <= 0:
            raise ConfigurationError("exponent must be positive")
        self.vocabulary_size = vocabulary_size
        self.exponent = exponent
        self.seed = seed

    def generate(self, num_accesses: int) -> AccessTrace:
        """Generate ``num_accesses`` token-id accesses."""
        if num_accesses < 1:
            raise ConfigurationError("num_accesses must be >= 1")
        rng = make_rng(self.seed)
        ranks = np.arange(1, self.vocabulary_size + 1, dtype=np.float64)
        weights = ranks ** (-self.exponent)
        weights /= weights.sum()
        token_ranks = rng.choice(self.vocabulary_size, size=num_accesses, p=weights)
        mapping = rng.permutation(self.vocabulary_size)
        addresses = mapping[token_ranks].astype(np.int64)
        return AccessTrace("xnli", self.vocabulary_size, addresses)


@dataclass(frozen=True)
class XNLISample:
    """One synthetic premise/hypothesis pair with its entailment label."""

    tokens: np.ndarray
    label: int


class SyntheticXNLIDataset:
    """Token-sequence classification dataset for the XLM-R-style example."""

    def __init__(
        self,
        num_samples: int,
        vocabulary_size: int = 4096,
        sequence_length: int = 32,
        num_classes: int = NUM_XNLI_CLASSES,
        exponent: float = 1.2,
        seed: int = 0,
    ):
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        if vocabulary_size < num_classes:
            raise ConfigurationError("vocabulary_size must be >= num_classes")
        if sequence_length < 1:
            raise ConfigurationError("sequence_length must be >= 1")
        if num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        self.num_samples = num_samples
        self.vocabulary_size = vocabulary_size
        self.sequence_length = sequence_length
        self.num_classes = num_classes
        rng = make_rng(seed)
        ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
        weights = ranks ** (-exponent)
        weights /= weights.sum()
        self.tokens = rng.choice(
            vocabulary_size, size=(num_samples, sequence_length), p=weights
        ).astype(np.int64)
        # Plant a signal: a hidden class prototype per label makes some tokens
        # predictive, so the example classifier has something to learn.
        prototypes = rng.normal(size=(num_classes, vocabulary_size))
        token_scores = prototypes[:, :].T  # (vocab, classes)
        sample_scores = token_scores[self.tokens].mean(axis=1)
        noisy = sample_scores + rng.normal(scale=0.05, size=sample_scores.shape)
        self.labels = np.argmax(noisy, axis=1).astype(np.int64)

    def sample(self, index: int) -> XNLISample:
        """Return one token sequence with its label."""
        if not 0 <= index < self.num_samples:
            raise IndexError(index)
        return XNLISample(tokens=self.tokens[index], label=int(self.labels[index]))

    def batches(self, batch_size: int):
        """Iterate over (tokens, labels) minibatches."""
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        for start in range(0, self.num_samples, batch_size):
            stop = start + batch_size
            yield self.tokens[start:stop], self.labels[start:stop]
