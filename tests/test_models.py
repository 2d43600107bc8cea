"""Tests for the DLRM and XLM-R style models (manual gradients)."""

import numpy as np
import pytest

from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.embedding import dlrm as dlrm_module
from repro.embedding.dlrm import DLRMModel
from repro.embedding.table import EmbeddingTable
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng

MLP_PARAMETERS = ["w_bottom1", "b_bottom1", "w_bottom2", "b_bottom2",
                  "w_top1", "b_top1", "w_top2", "b_top2"]


class TestDLRMModel:
    def make_model(self, dim=8):
        return DLRMModel(
            num_dense_features=5,
            small_table_sizes=(10, 20),
            embedding_dim=dim,
            seed=0,
        )

    def make_batch(self, model, rng, batch=1):
        dense = rng.normal(size=(batch, 5)).astype(np.float32)
        small_ids = np.stack([rng.integers(0, 10, batch), rng.integers(0, 20, batch)], axis=1)
        protected = rng.normal(size=(batch, model.embedding_dim)).astype(np.float32) * 0.1
        labels = rng.integers(0, 2, batch)
        return dense, small_ids, protected, labels

    @pytest.mark.parametrize("batch", [1, 6])
    def test_forward_produces_probabilities(self, batch):
        model = self.make_model()
        dense, small_ids, protected, _ = self.make_batch(model, make_rng(0), batch)
        cache = model.forward(dense, small_ids, protected)
        assert cache.probabilities.shape == (batch,)
        assert np.all((0.0 < cache.probabilities) & (cache.probabilities < 1.0))

    def test_backward_returns_finite_gradients_and_losses(self):
        model = self.make_model()
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(1), batch=4)
        cache = model.forward(dense, small_ids, protected)
        grads = model.backward(cache, small_ids, labels, update=False)
        assert grads.losses.shape == (4,)
        assert np.all(np.isfinite(grads.losses))
        assert np.all(np.isfinite(grads.protected_row_grad))
        assert grads.protected_row_grad.shape == (4, model.embedding_dim)
        assert grads.protected_row_grad.dtype == np.float32

    def test_protected_gradient_matches_finite_differences_for_every_row(self):
        """The manual backward pass must agree with numerical differentiation."""
        model = self.make_model(dim=4)
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(2), batch=5)
        cache = model.forward(dense, small_ids, protected)
        grads = model.backward(cache, small_ids, labels, update=False)

        def losses_at(rows):
            prob = model.forward(dense, small_ids, rows).probabilities
            eps = 1e-7
            return -(labels * np.log(prob + eps) + (1 - labels) * np.log(1 - prob + eps))

        # A sample's loss depends on its own row only, so perturbing one
        # column of every row at once differentiates all of them.
        numeric = np.zeros_like(protected)
        step = 1e-3
        for index in range(protected.shape[1]):
            plus = protected.copy()
            plus[:, index] += step
            minus = protected.copy()
            minus[:, index] -= step
            numeric[:, index] = (losses_at(plus) - losses_at(minus)) / (2 * step)
        assert np.allclose(grads.protected_row_grad, numeric, rtol=1e-2, atol=1e-3)

    def test_batch_gradients_equal_stacked_single_sample_gradients(self):
        model = self.make_model()
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(4), batch=7)
        cache = model.forward(dense, small_ids, protected)
        batched = model.backward(cache, small_ids, labels, update=False)
        for index in range(7):
            one = slice(index, index + 1)
            single_cache = model.forward(dense[one], small_ids[one], protected[one])
            single = model.backward(single_cache, small_ids[one], labels[one], update=False)
            assert np.allclose(
                batched.protected_row_grad[one], single.protected_row_grad, rtol=0, atol=1e-6
            )
            assert np.allclose(batched.losses[one], single.losses, rtol=0, atol=1e-6)

    def test_step_averages_mlp_gradients_and_sums_embedding_row_gradients(self):
        """Against the B=1 steps' moves: MLP weights take their mean, table rows their sum."""
        rng = make_rng(5)
        dense, small_ids, protected, labels = self.make_batch(self.make_model(), rng, batch=3)
        # Both samples 0 and 1 hit row 3 of the first small table.
        small_ids[:, 0] = [3, 3, 4]
        names = MLP_PARAMETERS

        def parameters(model):
            return [getattr(model, name).copy() for name in names] + [
                model.small_weights.copy()
            ]

        initial = parameters(self.make_model())
        expected = [np.zeros_like(value) for value in initial]
        for index in range(3):
            model = self.make_model()
            one = slice(index, index + 1)
            cache = model.forward(dense[one], small_ids[one], protected[one])
            model.backward(cache, small_ids[one], labels[one])
            for total, before, after in zip(expected, initial, parameters(model)):
                total += after - before

        model = self.make_model()
        model.backward(model.forward(dense, small_ids, protected), small_ids, labels)
        for position, (total, before, after) in enumerate(zip(expected, initial, parameters(model))):
            if position < len(names):
                total = total / 3
            assert np.allclose(after - before, total, rtol=0, atol=1e-6)
        # The row hit twice moved, and by both samples' gradients.
        row = model.small_offsets[0] + 3
        moved = model.small_weights[row] - initial[len(names)][row]
        assert np.any(moved != 0)
        assert np.allclose(moved, expected[len(names)][row], rtol=0, atol=1e-6)

    def test_parameter_step_matches_finite_differences_of_the_summed_loss(self):
        """Independent check of the batched interaction backward, duplicates included."""
        model = self.make_model(dim=4)
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(7), batch=4)
        small_ids[:, 0] = [3, 3, 4, 3]

        def summed_loss():
            prob = model.forward(dense, small_ids, protected).probabilities
            eps = 1e-7
            return -(labels * np.log(prob + eps) + (1 - labels) * np.log(1 - prob + eps)).sum()

        rows = model.small_offsets + [3, small_ids[0, 1]]
        watched = [model.small_weights[rows[0]], model.small_weights[rows[1]],
                   model.w_bottom2[0], model.b_bottom1[:4]]
        numeric = []
        step = 1e-3
        for values in watched:
            slopes = np.zeros(values.size)
            for index in range(values.size):
                original = values[index]
                values[index] = original + step
                plus = summed_loss()
                values[index] = original - step
                minus = summed_loss()
                values[index] = original
                slopes[index] = (plus - minus) / (2 * step)
            numeric.append(slopes)
        before = [values.copy() for values in watched]
        model.backward(model.forward(dense, small_ids, protected), small_ids, labels)
        # Table rows step on the summed gradient, MLP weights on its batch mean.
        for values, start, slopes, scale in zip(watched, before, numeric, (1, 1, 4, 4)):
            analytic = (start - values) * scale / model.learning_rate
            assert np.allclose(analytic, slopes, rtol=2e-2, atol=2e-3)

    def test_training_reduces_loss_on_fixed_batch(self):
        model = self.make_model()
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(3), batch=4)
        rows = protected.copy()
        losses = []
        for _ in range(30):
            cache = model.forward(dense, small_ids, rows)
            grads = model.backward(cache, small_ids, labels)
            rows = rows - 0.05 * grads.protected_row_grad
            losses.append(grads.losses.mean())
        assert losses[-1] < losses[0]

    def test_shape_and_dtype_errors_are_rejected(self):
        model = self.make_model()
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(6), batch=3)
        bad_forward_inputs = [
            (dense[0], small_ids, protected),  # a bare sample, not a batch of one
            (dense[:, :4], small_ids, protected),
            (dense, small_ids[:2], protected),
            (dense, small_ids[:, :1], protected),
            (dense, small_ids.astype(np.float32), protected),
            (dense, small_ids, protected[:2]),
            (dense, small_ids, protected[:, :3]),
            (dense[:0], small_ids[:0], protected[:0]),
        ]
        for inputs in bad_forward_inputs:
            with pytest.raises(ConfigurationError):
                model.forward(*inputs)
        with pytest.raises(ConfigurationError):  # id outside its small table
            model.forward(dense, small_ids + 100, protected)
        cache = model.forward(dense, small_ids, protected)
        for bad_ids, bad_labels in [(small_ids, labels[:2]), (small_ids, 1),
                                    (small_ids[:2], labels),
                                    (small_ids.astype(np.float64), labels)]:
            with pytest.raises(ConfigurationError):
                model.backward(cache, bad_ids, bad_labels)

    def test_small_ids_are_range_checked_per_column(self):
        """Sizes (10, 20): every id is checked against its own table's size."""
        model = self.make_model()
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(8), batch=3)
        cache = model.forward(dense, small_ids, protected)
        for column, value in [(0, -1), (1, -1), (0, 10), (1, 20)]:
            ids = small_ids.copy()
            ids[1, column] = value
            with pytest.raises(ConfigurationError):
                model.forward(dense, ids, protected)
            with pytest.raises(ConfigurationError):
                model.backward(cache, ids, labels)
        # The last valid id of every table passes.
        ids = small_ids.copy()
        ids[1] = [9, 19]
        model.forward(dense, ids, protected)
        with pytest.raises(ConfigurationError):  # past int64: wraps negative
            model.forward(dense, ids.astype(np.uint64) | np.uint64(1 << 63), protected)

    def test_unsigned_ids_train_exactly_as_signed_ones(self):
        signed, unsigned = self.make_model(), self.make_model()
        dense, small_ids, protected, labels = self.make_batch(signed, make_rng(9), batch=6)
        small_ids[:3, 0] = 4  # a repeated row
        probabilities = []
        for model, ids in [(signed, small_ids), (unsigned, small_ids.astype(np.uint64))]:
            cache = model.forward(dense, ids, protected)
            model.backward(cache, ids, labels)
            probabilities.append(cache.probabilities)
        assert np.array_equal(*probabilities)
        assert np.array_equal(signed.small_weights, unsigned.small_weights)

    def test_no_small_tables_still_trains(self):
        """Bottom-MLP output and protected row only (F = 2, one interaction)."""
        model = DLRMModel(num_dense_features=5, small_table_sizes=(), embedding_dim=8, seed=0)
        assert model.small_weights.shape == (0, 8)
        rng = make_rng(10)
        dense = rng.normal(size=(4, 5)).astype(np.float32)
        small_ids = np.zeros((4, 0), dtype=np.int64)
        rows = rng.normal(size=(4, 8)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])
        losses = []
        for _ in range(30):
            grads = model.backward(model.forward(dense, small_ids, rows), small_ids, labels)
            rows = rows - 0.05 * grads.protected_row_grad
            losses.append(grads.losses.mean())
        assert np.all(np.isfinite(losses)) and losses[-1] < losses[0]

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            DLRMModel(num_dense_features=0, small_table_sizes=(4,))
        with pytest.raises(ConfigurationError):
            DLRMModel(num_dense_features=2, small_table_sizes=(4,), learning_rate=0.0)
        for sizes in [(0,), (4, 0, 3), (4, -2)]:
            with pytest.raises(ConfigurationError):
                DLRMModel(num_dense_features=2, small_table_sizes=sizes)


# ----------------------------------------------------------------------
# Oracle: the step with one table per small column, as the model had it
# before its tables were stacked into one matrix
# ----------------------------------------------------------------------
def per_table_parameters(sizes, dim, seed, bottom_hidden=32, top_hidden=32, dense=13):
    """``DLRMModel``'s initial parameters drawn one ``EmbeddingTable`` per column.

    Returns the tables, the MLP parameters and the generator after the draws.
    """
    rng = make_rng(seed)
    tables = [EmbeddingTable(size, dim, rng=rng).weights for size in sizes]
    num_features = len(sizes) + 2
    top_input = dim + num_features * (num_features - 1) // 2
    mlp = {
        "w_bottom1": (rng.normal(size=(dense, bottom_hidden)) * (1.0 / np.sqrt(dense))).astype(np.float32),
        "b_bottom1": np.zeros(bottom_hidden, dtype=np.float32),
        "w_bottom2": (rng.normal(size=(bottom_hidden, dim)) * 0.1).astype(np.float32),
        "b_bottom2": np.zeros(dim, dtype=np.float32),
        "w_top1": (rng.normal(size=(top_input, top_hidden)) * (1.0 / np.sqrt(dim))).astype(np.float32),
        "b_top1": np.zeros(top_hidden, dtype=np.float32),
        "w_top2": (rng.normal(size=(top_hidden, 1)) * 0.1).astype(np.float32),
        "b_top2": np.zeros(1, dtype=np.float32),
    }
    return tables, mlp, rng


def per_table_step(tables, p, dense, small_ids, protected, labels, learning_rate):
    """One SGD step with a gather and a 2-D ``np.subtract.at`` per small column
    and the Gram product on the transposed view; updates ``tables`` and ``p``
    in place and returns (probabilities, losses, protected-row gradients)."""
    batch, d = protected.shape
    num_features = len(tables) + 2
    pair_i, pair_j = np.triu_indices(num_features, k=1)
    hidden = np.maximum(dense @ p["w_bottom1"] + p["b_bottom1"], 0.0)
    features = np.empty((batch, num_features, d), dtype=np.float32)
    features[:, 0] = hidden @ p["w_bottom2"] + p["b_bottom2"]
    for column, table in enumerate(tables):
        features[:, 1 + column] = table[small_ids[:, column]]
    features[:, -1] = protected
    gram = features @ features.transpose(0, 2, 1)
    top_input = np.concatenate([features[:, 0], gram[:, pair_i, pair_j]], axis=1)
    top_hidden = np.maximum(top_input @ p["w_top1"] + p["b_top1"], 0.0)
    logits = (top_hidden @ p["w_top2"][:, 0] + p["b_top2"][0]).astype(np.float64)
    prob = 1.0 / (1.0 + np.exp(-logits))

    labels = np.asarray(labels, dtype=np.float64)
    losses = -(labels * np.log(prob + 1e-7) + (1.0 - labels) * np.log(1.0 - prob + 1e-7))
    dlogit = (prob - labels).astype(np.float32)
    dtop_hidden_pre = (dlogit[:, None] * p["w_top2"][:, 0]) * (top_hidden > 0)
    dtop_input = dtop_hidden_pre @ p["w_top1"].T
    pair_grads = np.zeros((batch, num_features, num_features), dtype=np.float32)
    pair_grads[:, pair_i, pair_j] = dtop_input[:, d:]
    dfeatures = (pair_grads + pair_grads.transpose(0, 2, 1)) @ features
    dbottom_out = dtop_input[:, :d] + dfeatures[:, 0]
    dhidden_pre = (dbottom_out @ p["w_bottom2"].T) * (hidden > 0)
    gradients = {
        "w_top2": top_hidden.T @ dlogit[:, None],
        "b_top2": dlogit.sum(keepdims=True),
        "w_top1": top_input.T @ dtop_hidden_pre,
        "b_top1": dtop_hidden_pre.sum(axis=0),
        "w_bottom2": hidden.T @ dbottom_out,
        "b_bottom2": dbottom_out.sum(axis=0),
        "w_bottom1": dense.T @ dhidden_pre,
        "b_bottom1": dhidden_pre.sum(axis=0),
    }
    lr = np.float32(learning_rate)
    for name, gradient in gradients.items():
        p[name] -= lr / np.float32(batch) * gradient
    for column, table in enumerate(tables):
        np.subtract.at(table, small_ids[:, column], lr * dfeatures[:, 1 + column])
    return prob, losses, dfeatures[:, -1].copy()


@pytest.mark.parametrize("seed", [11, 4])
def test_construction_draws_what_one_table_per_column_drew(seed, monkeypatch):
    """Same small-table rows, same MLP weights, same generator state after."""
    sizes = (15, 1946, 1, 300)
    used = []

    def recording_make_rng(value):
        used.append(make_rng(value))
        return used[-1]

    monkeypatch.setattr(dlrm_module, "make_rng", recording_make_rng)
    model = DLRMModel(13, sizes, embedding_dim=32, seed=seed)
    tables, mlp, rng = per_table_parameters(sizes, 32, seed)
    assert model.small_weights.dtype == np.float32
    for offset, table in zip(model.small_offsets, tables):
        assert np.array_equal(model.small_weights[offset : offset + len(table)], table)
    assert len(model.small_weights) == sum(sizes)
    for name in MLP_PARAMETERS:
        assert np.array_equal(getattr(model, name), mlp[name])
    assert used[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", [11, 4])
def test_stacked_tables_train_bit_for_bit_as_one_table_per_column(seed):
    """Three epochs on a Criteo stream shaped like the suite's: 25 small tables
    of 10-2000 rows, batches of 32 with a ragged last one, Zipf ids repeated
    up to 13 times in a column of one batch."""
    dim, batch_size, learning_rate = 32, 32, 0.05
    dataset = SyntheticCriteoDataset(200, largest_table_rows=4096, seed=seed)
    protected_index = dataset.largest_table_index
    sizes = tuple(s for i, s in enumerate(dataset.table_sizes) if i != protected_index)
    assert len(sizes) == 25
    model = DLRMModel(13, sizes, embedding_dim=dim, learning_rate=learning_rate, seed=seed)
    tables, mlp, _ = per_table_parameters(sizes, dim, seed)
    protected = {
        side: EmbeddingTable(dataset.table_sizes[protected_index], dim, seed=seed).weights
        for side in ("model", "reference")
    }
    batches = list(dataset.batches(batch_size))
    assert len(batches[-1][2]) == 200 % batch_size
    most_repeated = max(
        np.unique(column, return_counts=True)[1].max()
        for _, categorical, _ in batches
        for column in np.delete(categorical, protected_index, axis=1).T
    )
    assert most_repeated >= 10

    for _ in range(3):
        for dense, categorical, labels in batches:
            ids = categorical[:, protected_index]
            small_ids = np.delete(categorical, protected_index, axis=1)
            cache = model.forward(dense, small_ids, protected["model"][ids])
            grads = model.backward(cache, small_ids, labels)
            prob, losses, protected_grad = per_table_step(
                tables, mlp, dense, small_ids, protected["reference"][ids], labels,
                learning_rate,
            )
            assert np.array_equal(cache.probabilities, prob)
            assert np.array_equal(grads.losses, losses)
            assert np.array_equal(grads.protected_row_grad, protected_grad)
            np.subtract.at(protected["model"], ids, 0.1 * grads.protected_row_grad)
            np.subtract.at(protected["reference"], ids, 0.1 * protected_grad)

    for name in MLP_PARAMETERS:
        assert np.array_equal(getattr(model, name), mlp[name]), name
    for offset, table in zip(model.small_offsets, tables):
        assert np.array_equal(model.small_weights[offset : offset + len(table)], table)


class TestXLMRClassifier:
    def test_forward_is_a_distribution(self):
        model = XLMRClassifier(embedding_dim=16, num_classes=3, seed=0)
        rng = make_rng(0)
        probabilities = model.forward(rng.normal(size=(5, 6, 16)))
        assert probabilities.shape == (5, 3)
        assert probabilities.sum(axis=1) == pytest.approx(np.ones(5))

    def test_train_step_returns_token_gradients(self):
        model = XLMRClassifier(embedding_dim=16, seed=0)
        rng = make_rng(1)
        tokens = rng.normal(size=(5, 6, 16)).astype(np.float32)
        result = model.train_step(tokens, np.array([2, 0, 1, 2, 2]), update=False)
        assert result.token_grads.shape == (5, 6, 16)
        assert result.token_grads.dtype == np.float32
        assert result.losses.shape == result.correct.shape == (5,)
        assert np.all(np.isfinite(result.losses))
        # Every token of a sentence is pushed by that sentence's pooled gradient.
        assert np.array_equal(result.token_grads[:, 0], result.token_grads[:, 5])

    def test_update_false_leaves_the_head_alone(self):
        model = XLMRClassifier(embedding_dim=8, seed=0)
        tokens = make_rng(4).normal(size=(3, 5, 8)).astype(np.float32)
        labels = np.array([0, 2, 1])
        weights, bias = model.weights.copy(), model.bias.copy()
        dry = model.train_step(tokens, labels, update=False)
        assert np.array_equal(model.weights, weights) and np.array_equal(model.bias, bias)
        stepped = model.train_step(tokens, labels)
        assert not np.array_equal(model.weights, weights)
        assert np.array_equal(dry.token_grads, stepped.token_grads)
        assert np.array_equal(dry.losses, stepped.losses)

    def test_a_batch_is_its_sentences_side_by_side(self):
        """Losses and token gradients are per sentence; the head steps on their mean."""
        tokens = make_rng(5).normal(size=(4, 6, 8)).astype(np.float32)
        labels = np.array([1, 0, 2, 1])
        batched = XLMRClassifier(embedding_dim=8, learning_rate=0.3, seed=0)
        result = batched.train_step(tokens, labels)
        head_steps = []
        for index in range(4):
            single = XLMRClassifier(embedding_dim=8, learning_rate=0.3, seed=0)
            initial = single.weights.copy()
            alone = single.train_step(tokens[index : index + 1], labels[index : index + 1])
            assert np.allclose(alone.token_grads[0], result.token_grads[index], atol=1e-7)
            assert alone.losses[0] == pytest.approx(result.losses[index], rel=1e-6)
            assert alone.correct[0] == result.correct[index]
            head_steps.append(single.weights - initial)
        fresh = XLMRClassifier(embedding_dim=8, learning_rate=0.3, seed=0)
        assert np.allclose(
            batched.weights - fresh.weights, np.mean(head_steps, axis=0), atol=1e-6
        )

    def test_training_reduces_loss(self):
        model = XLMRClassifier(embedding_dim=8, learning_rate=0.5, seed=0)
        rng = make_rng(2)
        embeddings = rng.normal(size=(3, 5, 8)).astype(np.float32)
        labels = np.array([1, 0, 2])
        losses = []
        for _ in range(25):
            result = model.train_step(embeddings, labels)
            embeddings = embeddings - 0.5 * result.token_grads
            losses.append(result.losses.mean())
        assert losses[-1] < losses[0]

    def test_invalid_inputs_rejected(self):
        model = XLMRClassifier(embedding_dim=8, seed=0)
        for shape in [(4, 5), (4, 8), (2, 4, 5), (0, 4, 8), (2, 0, 8)]:
            with pytest.raises(ConfigurationError):
                model.forward(np.zeros(shape))
            with pytest.raises(ConfigurationError):
                model.train_step(np.zeros(shape), np.zeros(shape[0], dtype=np.int64))
        rows = np.zeros((3, 4, 8))
        for labels in ([0, 1, 7], [0, -1, 1], [0, 1], [[0, 1, 2]], [0.0, 1.0, 2.0]):
            with pytest.raises(ConfigurationError):
                model.train_step(rows, np.array(labels))
        with pytest.raises(ConfigurationError):
            XLMRClassifier(embedding_dim=0)
