"""Tests for the access-trace abstraction and all workload generators."""

import numpy as np
import pytest

from repro.datasets.base import AccessTrace
from repro.datasets.gaussian import GaussianTraceGenerator
from repro.datasets.kaggle import (
    KAGGLE_LARGEST_TABLE_ROWS,
    NUM_CATEGORICAL_FEATURES,
    SyntheticCriteoDataset,
    SyntheticKaggleTrace,
)
from repro.datasets.permutation import PermutationTraceGenerator
from repro.datasets.registry import available_traces, make_trace
from repro.datasets.xnli import SyntheticXNLIDataset, SyntheticXNLITrace
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError, TraceError


class TestAccessTrace:
    def test_rejects_out_of_range_addresses(self):
        with pytest.raises(TraceError):
            AccessTrace("bad", 4, np.array([0, 4]))

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            AccessTrace("bad", 4, np.array([], dtype=np.int64))

    def test_indexing(self):
        trace = AccessTrace("t", 10, np.arange(10))
        assert trace[4] == 4
        assert isinstance(trace[2:5], AccessTrace)

    def test_repeat(self):
        trace = AccessTrace("t", 10, np.array([1, 2, 3]))
        assert len(trace.repeat(3)) == 9

    def test_statistics(self):
        trace = AccessTrace("t", 100, np.array([1, 1, 1, 50, 60]))
        stats = trace.statistics(hot_band_size=1)
        assert stats.num_unique_accessed == 3
        assert stats.duplicate_fraction == pytest.approx(0.4)
        assert stats.hot_band_fraction == pytest.approx(0.6)


class TestPermutation:
    def test_single_epoch_has_no_duplicates(self):
        trace = PermutationTraceGenerator(100, seed=0).generate(100)
        assert len(set(trace.addresses.tolist())) == 100

    def test_multi_epoch_covers_table_repeatedly(self):
        trace = PermutationTraceGenerator(50, seed=0).generate(150)
        counts = np.bincount(trace.addresses, minlength=50)
        assert counts.min() == 3
        assert counts.max() == 3

    def test_epochs_use_different_orders(self):
        trace = PermutationTraceGenerator(64, seed=0).generate(128)
        first, second = trace.addresses[:64], trace.addresses[64:]
        assert not np.array_equal(first, second)

    def test_reproducible(self):
        a = PermutationTraceGenerator(64, seed=5).generate(64)
        b = PermutationTraceGenerator(64, seed=5).generate(64)
        assert np.array_equal(a.addresses, b.addresses)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PermutationTraceGenerator(0)
        with pytest.raises(ConfigurationError):
            PermutationTraceGenerator(10).generate(0)


class TestGaussian:
    def test_addresses_within_range(self):
        trace = GaussianTraceGenerator(1000, seed=1).generate(5000)
        assert trace.addresses.min() >= 0
        assert trace.addresses.max() < 1000

    def test_concentrated_around_mean(self):
        trace = GaussianTraceGenerator(1000, seed=1).generate(5000)
        near_mean = np.abs(trace.addresses - 500) < 250
        assert near_mean.mean() > 0.9

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GaussianTraceGenerator(100, std_fraction=0.0)


class TestZipf:
    def test_skewed_popularity(self):
        trace = ZipfTraceGenerator(1000, exponent=1.3, seed=2).generate(5000)
        counts = np.bincount(trace.addresses, minlength=1000)
        top_share = np.sort(counts)[::-1][:10].sum() / 5000
        assert top_share > 0.2

    def test_shuffle_spreads_popular_ids(self):
        trace = ZipfTraceGenerator(1000, exponent=1.3, shuffle_ranks=True, seed=2).generate(5000)
        counts = np.bincount(trace.addresses, minlength=1000)
        hottest = int(np.argmax(counts))
        assert hottest != 0 or counts[0] < 5000

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            ZipfTraceGenerator(100, exponent=0.0)


class TestKaggleTrace:
    def test_default_table_size_matches_paper(self):
        assert KAGGLE_LARGEST_TABLE_ROWS == 10_131_227

    def test_mostly_random_with_hot_band(self):
        trace = SyntheticKaggleTrace(
            num_blocks=100_000, hot_band_size=100, hot_fraction=0.15, seed=3
        ).generate(20_000)
        stats = trace.statistics(hot_band_size=100)
        assert stats.hot_band_fraction > 0.10
        assert stats.num_unique_accessed > 10_000

    def test_hot_band_sits_at_low_indices(self):
        trace = SyntheticKaggleTrace(
            num_blocks=100_000, hot_band_size=100, hot_fraction=0.3, seed=3
        ).generate(20_000)
        low = (trace.addresses < 100).mean()
        assert low > 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SyntheticKaggleTrace(num_blocks=100, hot_band_size=100)
        with pytest.raises(ConfigurationError):
            SyntheticKaggleTrace(num_blocks=100, hot_fraction=1.5)


class TestCriteoDataset:
    def test_shapes(self):
        dataset = SyntheticCriteoDataset(num_samples=200, largest_table_rows=1000, seed=0)
        assert dataset.dense.shape == (200, 13)
        assert dataset.categorical.shape == (200, NUM_CATEGORICAL_FEATURES)
        assert dataset.labels.shape == (200,)

    def test_categorical_ids_within_table_sizes(self):
        dataset = SyntheticCriteoDataset(num_samples=100, largest_table_rows=500, seed=0)
        for column, size in enumerate(dataset.table_sizes):
            assert dataset.categorical[:, column].max() < size

    def test_labels_are_binary_and_mixed(self):
        dataset = SyntheticCriteoDataset(num_samples=500, largest_table_rows=1000, seed=0)
        assert set(np.unique(dataset.labels)) == {0, 1}

    def test_batches(self):
        dataset = SyntheticCriteoDataset(num_samples=10, largest_table_rows=100, seed=0)
        batches = list(dataset.batches(4))
        assert len(batches) == 3
        assert batches[0][0].shape[0] == 4
        assert batches[-1][0].shape[0] == 2

    def test_batches_stop_at_max_samples(self):
        dataset = SyntheticCriteoDataset(num_samples=10, largest_table_rows=100, seed=0)
        batches = list(dataset.batches(4, max_samples=7))
        assert [labels.shape[0] for _, _, labels in batches] == [4, 3]
        assert np.array_equal(np.concatenate([c for _, c, _ in batches]), dataset.categorical[:7])
        assert sum(d.shape[0] for d, _, _ in dataset.batches(4, max_samples=99)) == 10
        for batch_size, max_samples in [(0, None), (4, 0)]:
            with pytest.raises(ConfigurationError):
                list(dataset.batches(batch_size, max_samples))


class TestXNLI:
    def test_trace_is_zipfian(self):
        trace = SyntheticXNLITrace(vocabulary_size=5000, seed=4).generate(20_000)
        stats = trace.statistics(hot_band_size=50)
        assert stats.duplicate_fraction > 0.4

    def test_dataset_shapes_and_labels(self):
        dataset = SyntheticXNLIDataset(num_samples=50, vocabulary_size=512, sequence_length=8)
        assert dataset.tokens.shape == (50, 8)
        assert set(np.unique(dataset.labels)).issubset({0, 1, 2})

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SyntheticXNLITrace(vocabulary_size=1)
        with pytest.raises(ConfigurationError):
            SyntheticXNLIDataset(num_samples=0)


class TestRegistry:
    def test_all_names_build(self):
        for name in available_traces():
            trace = make_trace(name, 256, 128, seed=1)
            assert len(trace) == 128
            assert trace.num_blocks == 256

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trace("imagenet", 256, 128)
