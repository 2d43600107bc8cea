"""Tests for embedding tables and the sparse optimiser."""

import numpy as np
import pytest

from repro.embedding import table as table_module
from repro.embedding.optim import SparseSGD
from repro.embedding.table import EmbeddingTable
from repro.exceptions import ConfigurationError


class TestEmbeddingTable:
    def test_shape_and_dtype(self):
        table = EmbeddingTable(num_rows=10, dim=4, seed=0)
        assert table.weights.shape == (10, 4)
        assert table.weights.dtype == np.float32

    def test_row_nbytes(self):
        table = EmbeddingTable(4, 32, seed=0)
        assert table.row_nbytes == 128

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
