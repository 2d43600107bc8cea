"""Tests for the DLRM and XLM-R style models (manual gradients)."""

import numpy as np
import pytest

from repro.embedding.dlrm import DLRMModel
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import ConfigurationError
from repro.utils.rng import make_rng


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
        assert np.array_equal(model.predict_proba(dense, small_ids, protected), cache.probabilities)

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
        names = ["w_bottom1", "b_bottom1", "w_bottom2", "b_bottom2",
                 "w_top1", "b_top1", "w_top2", "b_top2"]

        def parameters(model):
            return [getattr(model, name).copy() for name in names] + [
                table.weights.copy() for table in model.small_tables
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
        moved = model.small_tables[0].weights[3] - initial[len(names)][3]
        assert np.any(moved != 0)
        assert np.allclose(moved, expected[len(names)][3], rtol=0, atol=1e-6)

    def test_parameter_step_matches_finite_differences_of_the_summed_loss(self):
        """Independent check of the batched interaction backward, duplicates included."""
        model = self.make_model(dim=4)
        dense, small_ids, protected, labels = self.make_batch(model, make_rng(7), batch=4)
        small_ids[:, 0] = [3, 3, 4, 3]

        def summed_loss():
            prob = model.forward(dense, small_ids, protected).probabilities
            eps = 1e-7
            return -(labels * np.log(prob + eps) + (1 - labels) * np.log(1 - prob + eps)).sum()

        watched = [model.small_tables[0].weights[3], model.small_tables[1].weights[small_ids[0, 1]],
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

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            DLRMModel(num_dense_features=0, small_table_sizes=(4,))
        with pytest.raises(ConfigurationError):
            DLRMModel(num_dense_features=2, small_table_sizes=(4,), learning_rate=0.0)


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

    def test_predict_matches_argmax(self):
        model = XLMRClassifier(embedding_dim=8, seed=0)
        rng = make_rng(3)
        tokens = rng.normal(size=(7, 4, 8))
        assert model.predict(tokens).tolist() == model.forward(tokens).argmax(axis=1).tolist()

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
