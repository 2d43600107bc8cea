"""Tests for the shared greedy write-back planner."""

import numpy as np

from oracle.bits import common_level
from oracle import Block, Stash, TreeStorage, plan_greedy_write_back


def make_tree(depth=3, bucket=2):
    return TreeStorage(depth, [bucket] * (depth + 1), block_size_bytes=64)


class TestGreedyWriteBack:
    def test_block_on_accessed_path_goes_to_leaf(self):
        tree = make_tree()
        stash = Stash()
        stash.add(Block(1, leaf=5))
        placement = plan_greedy_write_back(tree, stash, leaf=5)
        assert placement[3][0].block_id == 1
        assert len(stash) == 0

    def test_unrelated_block_can_only_reach_root(self):
        tree = make_tree()
        stash = Stash()
        # Leaf 0 and leaf 7 diverge immediately below the root.
        stash.add(Block(1, leaf=0))
        placement = plan_greedy_write_back(tree, stash, leaf=7)
        assert list(placement.keys()) == [0]

    def test_respects_bucket_capacity(self):
        tree = make_tree(bucket=1)
        stash = Stash()
        for block_id in range(5):
            stash.add(Block(block_id, leaf=6))
        placement = plan_greedy_write_back(tree, stash, leaf=6)
        placed = sum(len(blocks) for blocks in placement.values())
        assert placed == 4  # one per level (depth 3 + root)
        assert len(stash) == 1

    def test_respects_existing_occupancy(self):
        tree = make_tree(bucket=1)
        tree.bucket(0, 0).add(Block(99, leaf=0))
        stash = Stash()
        stash.add(Block(1, leaf=0))  # accessed path is leaf 7: only root is shared
        placement = plan_greedy_write_back(tree, stash, leaf=7)
        assert placement == {}
        assert len(stash) == 1

    def test_placement_respects_path_prefix_invariant(self):
        rng = np.random.default_rng(0)
        tree = make_tree(depth=4, bucket=2)
        stash = Stash()
        for block_id in range(30):
            stash.add(Block(block_id, leaf=int(rng.integers(0, 16))))
        accessed_leaf = 9
        placement = plan_greedy_write_back(tree, stash, accessed_leaf)
        for level, blocks in placement.items():
            for block in blocks:
                assert common_level(block.leaf, accessed_leaf, 4) >= level

    def test_empty_stash_produces_empty_placement(self):
        tree = make_tree()
        assert plan_greedy_write_back(tree, Stash(), leaf=0) == {}
