"""Tests for the binary-tree index arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.utils.bits import num_leaves, num_nodes, required_depth

from oracle.bits import common_level, node_index, path_node_indices


class TestRequiredDepth:
    def test_exact_power_of_two(self):
        assert required_depth(1024) == 10

    def test_rounds_up_between_powers(self):
        assert required_depth(1025) == 11
        assert required_depth(1000) == 10

    def test_minimum_depth_is_one(self):
        assert required_depth(1) == 1
        assert required_depth(2) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            required_depth(0)


class TestGeometry:
    def test_num_leaves(self):
        assert num_leaves(4) == 16

    def test_num_nodes(self):
        assert num_nodes(4) == 31

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            num_leaves(0)


class TestNodeIndex:
    def test_root_is_index_zero(self):
        assert node_index(0, leaf=5, depth=3) == 0

    def test_leaf_indices_are_contiguous(self):
        depth = 3
        leaf_indices = [node_index(depth, leaf, depth) for leaf in range(8)]
        assert leaf_indices == list(range(7, 15))

    def test_path_node_indices_walks_root_to_leaf(self):
        indices = path_node_indices(leaf=5, depth=3)
        assert indices[0] == 0
        assert len(indices) == 4
        assert indices[-1] == node_index(3, 5, 3)

    def test_sibling_leaves_share_all_but_last_node(self):
        left = path_node_indices(leaf=6, depth=3)
        right = path_node_indices(leaf=7, depth=3)
        assert left[:-1] == right[:-1]
        assert left[-1] != right[-1]

    def test_out_of_range_leaf_rejected(self):
        with pytest.raises(ConfigurationError):
            node_index(1, leaf=8, depth=3)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ConfigurationError):
            node_index(4, leaf=0, depth=3)


class TestCommonLevel:
    def test_identical_leaves_share_whole_path(self):
        assert common_level(3, 3, depth=5) == 5

    def test_leaves_in_different_halves_share_only_root(self):
        assert common_level(0, (1 << 5) - 1, depth=5) == 0

    def test_adjacent_leaves_in_same_subtree(self):
        assert common_level(4, 5, depth=3) == 2

    def test_symmetry(self):
        assert common_level(3, 12, 4) == common_level(12, 3, 4)

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_common_level_matches_shared_prefix(self, depth, data):
        leaf_a = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        leaf_b = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        level = common_level(leaf_a, leaf_b, depth)
        # The paths share exactly the first ``level + 1`` nodes.
        path_a = path_node_indices(leaf_a, depth)
        path_b = path_node_indices(leaf_b, depth)
        shared = sum(1 for a, b in zip(path_a, path_b) if a == b)
        assert shared == level + 1

    def test_out_of_range_leaf_rejected(self):
        with pytest.raises(ConfigurationError):
            common_level(0, 100, depth=3)
