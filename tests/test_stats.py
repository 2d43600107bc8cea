"""Tests for the statistical helpers used by the security analysis."""

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.utils.stats import (
    chi_square_survival,
    chi_square_uniformity,
    empirical_entropy,
    gini_coefficient,
    mutual_information,
)


class TestChiSquare:
    def test_uniform_sample_is_not_rejected(self):
        rng = make_rng(0)
        observations = rng.integers(0, 16, size=8000)
        result = chi_square_uniformity(observations, 16)
        assert not result.rejects_uniformity(alpha=0.01)

    def test_constant_sample_is_rejected(self):
        observations = np.zeros(1000, dtype=np.int64)
        result = chi_square_uniformity(observations, 16)
        assert result.rejects_uniformity(alpha=0.01)
        assert result.p_value < 1e-6

    def test_statistic_is_zero_for_perfectly_balanced_counts(self):
        observations = np.repeat(np.arange(8), 10)
        result = chi_square_uniformity(observations, 8)
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_rejects_out_of_range_observations(self):
        with pytest.raises(ValueError):
            chi_square_uniformity([0, 1, 9], 4)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            chi_square_uniformity([], 4)

    def test_survival_is_monotone_in_statistic(self):
        assert chi_square_survival(5.0, 10) > chi_square_survival(25.0, 10)

    def test_survival_validates_arguments(self):
        with pytest.raises(ValueError):
            chi_square_survival(-1.0, 3)
        with pytest.raises(ValueError):
            chi_square_survival(1.0, 0)


class TestEntropy:
    def test_entropy_of_constant_is_zero(self):
        assert empirical_entropy([5] * 100) == pytest.approx(0.0)

    def test_entropy_of_uniform_is_log2(self):
        values = list(range(8)) * 100
        assert empirical_entropy(values) == pytest.approx(3.0, abs=1e-9)


class TestMutualInformation:
    def test_identical_sequences_share_full_entropy(self):
        values = list(range(16)) * 20
        info = mutual_information(values, values)
        assert info == pytest.approx(empirical_entropy(values), abs=1e-9)

    def test_independent_sequences_share_little(self):
        rng = make_rng(1)
        xs = rng.integers(0, 8, 4000).tolist()
        ys = rng.integers(0, 8, 4000).tolist()
        assert mutual_information(xs, ys) < 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mutual_information([1, 2], [1])

    def test_empty_sequences_have_zero_information(self):
        assert mutual_information([], []) == 0.0


class TestGini:
    def test_equal_values_have_zero_gini(self):
        assert gini_coefficient([3.0, 3.0, 3.0, 3.0]) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_values_have_high_gini(self):
        values = [0.0] * 99 + [100.0]
        assert gini_coefficient(values) > 0.9

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([1.0, -2.0])

    def test_empty_and_zero_inputs(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0.0, 0.0]) == 0.0
