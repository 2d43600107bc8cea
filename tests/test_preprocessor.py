"""Tests for the LAORAM preprocessor (dataset scan + path generation)."""

import numpy as np
import pytest

from repro.core.preprocessor import Preprocessor
from repro.exceptions import ConfigurationError, TraceError
from repro.utils.stats import chi_square_uniformity

from conftest import bin_lists


class TestBuildPlan:
    def test_bins_cover_the_whole_stream_in_order(self):
        pre = Preprocessor(superblock_size=4, num_leaves=16, seed=0)
        addresses = np.arange(10)
        plan = pre.build_plan(addresses)
        assert len(plan) == 3
        assert plan.addresses.tolist() == addresses.tolist()
        assert plan.num_accesses == 10
        # Bins (0..3), (4..7), (8, 9): one remap per distinct id.
        remaps, _ = bin_lists(plan)
        assert [len(r) for r in remaps] == [4, 4, 2]

    def test_start_index_offsets_occurrences(self):
        pre = Preprocessor(superblock_size=2, num_leaves=8, seed=0)
        plan = pre.build_plan([4, 5, 4], start_index=100)
        assert (plan.start_index, plan.stop_index) == (100, 103)
        # Block 4 at indices 100 (bin 0) and 102 (bin 1).
        first, second = plan.bin_leaves.tolist()
        assert first != second
        assert plan.consume_next_leaf(4, after_index=99) == first
        assert plan.consume_next_leaf(4, after_index=100) == second
        assert plan.consume_next_leaf(4, after_index=-1) is None

    def test_leaves_are_within_range(self):
        pre = Preprocessor(superblock_size=4, num_leaves=32, seed=1)
        plan = pre.build_plan(np.arange(400))
        assert len(plan) == 100
        assert ((plan.bin_leaves >= 0) & (plan.bin_leaves < 32)).all()

    def test_bin_paths_are_uniform(self):
        """Superblock path generation must be uniform over the leaves (Sec. VI)."""
        pre = Preprocessor(superblock_size=1, num_leaves=16, seed=2)
        plan = pre.build_plan(np.zeros(8000, dtype=np.int64))
        leaves = plan.bin_leaves.tolist()
        assert not chi_square_uniformity(leaves, 16).rejects_uniformity()

    def test_plan_is_deterministic_for_a_seed(self):
        addresses = np.arange(64)
        a = Preprocessor(4, 16, seed=7).build_plan(addresses)
        b = Preprocessor(4, 16, seed=7).build_plan(addresses)
        assert np.array_equal(a.bin_leaves, b.bin_leaves)

    def test_invalid_inputs_rejected(self):
        pre = Preprocessor(superblock_size=2, num_leaves=8)
        with pytest.raises(TraceError):
            pre.build_plan([])
        with pytest.raises(TraceError):
            pre.build_plan([[1, 2], [3, 4]])
        with pytest.raises(TraceError):
            pre.build_plan([-1, 2])

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            Preprocessor(superblock_size=0, num_leaves=8)
        with pytest.raises(ConfigurationError):
            Preprocessor(superblock_size=2, num_leaves=1)

