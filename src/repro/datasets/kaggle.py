"""Synthetic Criteo-Kaggle workload used in place of the proprietary dataset.

The paper evaluates LAORAM on the Criteo AI Labs Ad Kaggle dataset used by
Meta's DLRM.  That dataset cannot be redistributed, so this module builds a
synthetic equivalent that reproduces the property the ORAM cares about: the
access stream to the largest embedding table looks almost uniformly random
over ~10.1M ids, with a narrow band of very hot ids accessed repeatedly
(Fig. 2 of the paper).

Two artefacts are provided:

* :class:`SyntheticKaggleTrace` — the raw embedding-access stream for ORAM
  experiments (speedups, traffic, dummy reads);
* :class:`SyntheticCriteoDataset` — full training samples (dense features,
  26 categorical features, click label) for the end-to-end DLRM example.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import AccessTrace
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng

#: Number of rows in the largest Criteo-Kaggle embedding table (paper, VII-C).
KAGGLE_LARGEST_TABLE_ROWS = 10_131_227

#: DLRM uses 26 categorical (sparse) features for the Criteo datasets.
NUM_CATEGORICAL_FEATURES = 26

#: Number of dense (continuous) features per Criteo sample.
NUM_DENSE_FEATURES = 13


class SyntheticKaggleTrace:
    """Access-stream generator mimicking the Kaggle trace of Fig. 2."""

    def __init__(
        self,
        num_blocks: int = KAGGLE_LARGEST_TABLE_ROWS,
        hot_band_size: int = 512,
        hot_fraction: float = 0.12,
        seed: int = 0,
    ):
        if num_blocks < 2:
            raise ConfigurationError("num_blocks must be >= 2")
        if hot_band_size < 1 or hot_band_size >= num_blocks:
            raise ConfigurationError("hot_band_size must be in [1, num_blocks)")
        if not 0.0 <= hot_fraction < 1.0:
            raise ConfigurationError("hot_fraction must be within [0, 1)")
        self.num_blocks = num_blocks
        self.hot_band_size = hot_band_size
        self.hot_fraction = hot_fraction
        self.seed = seed

    def generate(self, num_accesses: int) -> AccessTrace:
        """Generate ``num_accesses`` accesses: mostly uniform plus a hot band."""
        if num_accesses < 1:
            raise ConfigurationError("num_accesses must be >= 1")
        rng = make_rng(self.seed)
        uniform = rng.integers(0, self.num_blocks, size=num_accesses, dtype=np.int64)
        hot_mask = rng.random(num_accesses) < self.hot_fraction
        # The hot band sits at low indices, as in Fig. 2, with a mild skew
        # inside the band itself.
        ranks = np.arange(1, self.hot_band_size + 1, dtype=np.float64)
        weights = ranks ** -1.05
        weights /= weights.sum()
        hot = rng.choice(self.hot_band_size, size=int(hot_mask.sum()), p=weights)
        addresses = uniform
        addresses[hot_mask] = hot
        return AccessTrace("kaggle", self.num_blocks, addresses)


class SyntheticCriteoDataset:
    """Full synthetic click-through-rate dataset for the DLRM example.

    Each sample carries 13 dense features, 26 categorical ids (one per
    feature/table) and a click label generated from a planted logistic model
    so that training has signal to learn.
    """

    def __init__(
        self,
        num_samples: int,
        table_sizes: tuple[int, ...] | None = None,
        largest_table_rows: int = 100_000,
        seed: int = 0,
    ):
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        if largest_table_rows < 2:
            raise ConfigurationError("largest_table_rows must be >= 2")
        self.num_samples = num_samples
        if table_sizes is None:
            rng_sizes = make_rng(seed + 1)
            # Small tables stay strictly smaller than the protected table so
            # that "largest table" is well defined.
            small_cap = max(11, min(2000, largest_table_rows // 2))
            small = rng_sizes.integers(10, small_cap, size=NUM_CATEGORICAL_FEATURES - 1)
            table_sizes = tuple(int(s) for s in small) + (largest_table_rows,)
        if len(table_sizes) < 1:
            raise ConfigurationError("need at least one categorical table")
        self.table_sizes = tuple(int(s) for s in table_sizes)
        self.seed = seed
        rng = make_rng(seed)
        self.dense = rng.normal(size=(num_samples, NUM_DENSE_FEATURES)).astype(np.float32)
        columns = []
        for size in self.table_sizes:
            zipf = ZipfTraceGenerator(size, exponent=1.05, seed=int(rng.integers(1 << 30)))
            columns.append(zipf.generate(num_samples).addresses)
        self.categorical = np.stack(columns, axis=1)
        # Planted logistic labelling: dense features plus a per-category bias.
        weights = rng.normal(size=NUM_DENSE_FEATURES)
        category_bias = rng.normal(scale=0.5, size=self.table_sizes[-1])
        logits = self.dense @ weights + category_bias[self.categorical[:, -1]]
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        self.labels = (rng.random(num_samples) < probabilities).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def largest_table_index(self) -> int:
        """Index of the largest (ORAM-protected) table."""
        return int(np.argmax(self.table_sizes))

    def batches(self, batch_size: int, max_samples: int | None = None):
        """Iterate over (dense, categorical, labels) minibatches.

        Covers the first ``max_samples`` samples (default: all of them); the
        last minibatch is short when ``batch_size`` does not divide them.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        num_samples = self.num_samples if max_samples is None else min(
            max_samples, self.num_samples
        )
        if num_samples < 1:
            raise ConfigurationError("need at least one training sample")
        for start in range(0, num_samples, batch_size):
            stop = min(start + batch_size, num_samples)
            yield (
                self.dense[start:stop],
                self.categorical[start:stop],
                self.labels[start:stop],
            )
