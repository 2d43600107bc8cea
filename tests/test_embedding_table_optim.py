"""Tests for embedding tables and sparse optimisers."""

import numpy as np
import pytest

from repro.embedding import table as table_module
from repro.embedding.optim import SparseAdagrad, SparseSGD
from repro.embedding.table import EmbeddingTable
from repro.exceptions import ConfigurationError


class TestEmbeddingTable:
    def test_shape_and_dtype(self):
        table = EmbeddingTable(num_rows=10, dim=4, seed=0)
        assert table.weights.shape == (10, 4)
        assert table.weights.dtype == np.float32

    def test_lookup_returns_copies(self):
        table = EmbeddingTable(10, 4, seed=0)
        rows = table.lookup([1, 2])
        rows[0, 0] = 99.0
        assert table.weights[1, 0] != 99.0

    def test_set_rows(self):
        table = EmbeddingTable(10, 4, seed=0)
        values = np.ones((2, 4), dtype=np.float32)
        table.set_rows([3, 7], values)
        assert np.allclose(table.lookup([3, 7]), 1.0)

    def test_row_nbytes(self):
        table = EmbeddingTable(4, 32, seed=0)
        assert table.row_nbytes == 128

    def test_invalid_ids_rejected(self):
        table = EmbeddingTable(4, 2, seed=0)
        with pytest.raises(ConfigurationError):
            table.lookup([4])
        with pytest.raises(ConfigurationError):
            table.set_rows([0], np.ones((1, 3), dtype=np.float32))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            EmbeddingTable(0, 4)
        with pytest.raises(ConfigurationError):
            EmbeddingTable(4, 0)

    @pytest.mark.parametrize(
        "rows, dim, chunk_values",
        [
            # Real chunk size: three chunks, the last one 409 rows.
            (300_001, 7, table_module.FILL_CHUNK_VALUES),
            (100_000, 7, table_module.FILL_CHUNK_VALUES),
            # Small chunks: one row each, a seam after every row, and a
            # chunk narrower than one row.
            (5, 3, 4),
            (17, 2, 6),
            (9, 5, 1),
        ],
    )
    def test_chunked_fill_is_the_one_shot_draw_bit_for_bit(
        self, rows, dim, chunk_values, monkeypatch
    ):
        monkeypatch.setattr(table_module, "FILL_CHUNK_VALUES", chunk_values)
        table = EmbeddingTable(rows, dim, scale=0.01, seed=7)
        one_shot = (
            np.random.default_rng(7).normal(size=(rows, dim)) * 0.01
        ).astype(np.float32)
        assert table.weights.dtype == np.float32
        assert table.weights.tobytes() == one_shot.tobytes()


class TestSparseSGD:
    def test_update_direction(self):
        sgd = SparseSGD(learning_rate=0.1)
        rows = np.zeros((2, 3), dtype=np.float32)
        grads = np.ones((2, 3), dtype=np.float32)
        updated = sgd.update(rows, grads)
        assert np.allclose(updated, -0.1)

    def test_shape_mismatch_rejected(self):
        sgd = SparseSGD()
        with pytest.raises(ConfigurationError):
            sgd.update(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            SparseSGD(learning_rate=0.0)


class TestSparseAdagrad:
    def test_requires_row_ids(self):
        opt = SparseAdagrad()
        with pytest.raises(ConfigurationError):
            opt.update(np.zeros((1, 2)), np.ones((1, 2)))

    def test_step_size_shrinks_with_accumulated_gradient(self):
        opt = SparseAdagrad(learning_rate=1.0)
        rows = np.zeros((1, 2), dtype=np.float32)
        grads = np.ones((1, 2), dtype=np.float32)
        first = opt.update(rows, grads, row_ids=[7])
        second = opt.update(first, grads, row_ids=[7])
        first_step = np.abs(first - rows)
        second_step = np.abs(second - first)
        assert np.all(second_step < first_step)

    def test_accumulators_are_per_row(self):
        opt = SparseAdagrad(learning_rate=1.0)
        grads = np.ones((1, 2), dtype=np.float32)
        opt.update(np.zeros((1, 2)), grads, row_ids=[1])
        opt.update(np.zeros((1, 2)), grads, row_ids=[2])
        assert opt.tracked_rows == 2

    def test_row_id_length_mismatch_rejected(self):
        opt = SparseAdagrad()
        with pytest.raises(ConfigurationError):
            opt.update(np.zeros((2, 2)), np.zeros((2, 2)), row_ids=[1])
