"""Tests for superblock bins and the lookahead plan."""

import numpy as np
import pytest

from repro.core.superblock import LookaheadPlan, SuperblockBin


def make_plan():
    bins = [
        SuperblockBin(bin_id=0, start_index=0, block_ids=(5, 7, 5, 9), leaf=3),
        SuperblockBin(bin_id=1, start_index=4, block_ids=(2, 5, 11, 7), leaf=6),
        SuperblockBin(bin_id=2, start_index=8, block_ids=(9, 9), leaf=1),
    ]
    return LookaheadPlan(bins, num_leaves=16)


class TestSuperblockBin:
    def test_end_index(self):
        sb = SuperblockBin(0, start_index=4, block_ids=(1, 2, 3), leaf=0)
        assert sb.end_index == 6

    def test_unique_block_ids_preserve_order(self):
        sb = SuperblockBin(0, 0, block_ids=(5, 7, 5, 9), leaf=0)
        assert sb.unique_block_ids == (5, 7, 9)

    def test_len_counts_accesses_not_unique_blocks(self):
        sb = SuperblockBin(0, 0, block_ids=(5, 5, 5), leaf=0)
        assert len(sb) == 3


class TestLookaheadPlan:
    def test_num_accesses(self):
        assert make_plan().num_accesses == 10

    def test_iteration_and_len(self):
        plan = make_plan()
        assert len(plan) == 3
        assert [sb.bin_id for sb in plan] == [0, 1, 2]

    def test_next_leaf_finds_following_occurrence(self):
        plan = make_plan()
        # Block 5 occurs at indices 0, 2 (bin 0) and 5 (bin 1).
        assert plan.next_leaf(5, after_index=-1) == 3
        assert plan.next_leaf(5, after_index=2) == 6
        assert plan.next_leaf(5, after_index=5) is None

    def test_next_leaf_for_unknown_block(self):
        assert make_plan().next_leaf(999, after_index=-1) is None

    def test_consume_next_leaf_uses_each_occurrence_once(self):
        plan = make_plan()
        # Block 5 occurs at indices 0 and 2 (bin 0, leaf 3) and 5 (bin 1, leaf 6).
        assert plan.consume_next_leaf(5, after_index=-1) == 3
        # Subsequent reassignments move on to later occurrences even though
        # after_index has not advanced.
        assert plan.consume_next_leaf(5, after_index=-1) == 3  # index 2, same bin
        assert plan.consume_next_leaf(5, after_index=-1) == 6  # index 5, bin 1
        assert plan.consume_next_leaf(5, after_index=-1) is None

    def test_consume_does_not_affect_pure_lookup(self):
        plan = make_plan()
        plan.consume_next_leaf(5, after_index=-1)
        assert plan.next_leaf(5, after_index=-1) == 3

    def test_occurrences(self):
        plan = make_plan()
        assert plan.occurrences(9) == [3, 8, 9]
        assert plan.occurrences(123) == []

    def test_metadata_bytes_derives_from_widths(self):
        # Ids fit one byte (max id 11) and so do the 16 leaves: 2 bytes/access.
        assert make_plan().metadata_bytes() == 2 * 10
        # A wide tree needs wider path fields: 2^20 leaves -> 3 leaf bytes.
        wide = LookaheadPlan(
            [SuperblockBin(0, 0, block_ids=(70_000, 2), leaf=9)],
            num_leaves=1 << 20,
        )
        assert wide.metadata_bytes() == 2 * (3 + 3)

    def test_invalid_num_leaves_rejected(self):
        with pytest.raises(ValueError):
            LookaheadPlan([], num_leaves=1)


class TestFromArrays:
    def test_matches_classic_construction(self):
        addresses = np.asarray([5, 7, 5, 9, 2, 5, 11, 7, 9, 9], dtype=np.int64)
        leaves = np.asarray([3, 6, 1], dtype=np.int64)
        plan = LookaheadPlan.from_arrays(
            addresses, leaves, superblock_size=4, num_leaves=16
        )
        classic = make_plan()
        assert plan.bins == classic.bins
        assert plan.num_accesses == classic.num_accesses
        for block_id in (2, 5, 7, 9, 11, 123):
            assert plan.occurrences(block_id) == classic.occurrences(block_id)
            for after in (-1, 0, 3, 9):
                assert plan.next_leaf(block_id, after) == classic.next_leaf(
                    block_id, after
                )

    def test_iter_bin_arrays_matches_bins(self):
        addresses = np.arange(10, dtype=np.int64)
        leaves = np.asarray([4, 2, 7], dtype=np.int64)
        plan = LookaheadPlan.from_arrays(
            addresses, leaves, superblock_size=4, num_leaves=8, start_index=50
        )
        seen = [
            (start, tuple(ids.tolist()), leaf)
            for start, ids, leaf in plan.iter_bin_arrays()
        ]
        assert seen == [
            (sb.start_index, sb.block_ids, sb.leaf) for sb in plan.bins
        ]

    def test_bin_leaf_count_must_match(self):
        with pytest.raises(ValueError):
            LookaheadPlan.from_arrays(
                np.arange(10), np.asarray([1]), superblock_size=4, num_leaves=8
            )

    def test_take_first_occurrences(self):
        plan = make_plan()
        ids, leaves = plan.take_first_occurrences(10)
        # Planned ids below the bound, ascending (11 is planned but >= 10;
        # 0 never is), each with the leaf of the bin it first appears in.
        assert ids.tolist() == [2, 5, 7, 9]
        assert leaves.tolist() == [6, 3, 3, 3]
        # Block 5's occurrence 0 (index 0, leaf 3) is spent: the next
        # reassignment moves on to index 2 (still bin 0) then bin 1.
        assert plan.consume_next_leaf(5, after_index=-1) == 3  # index 2
        assert plan.consume_next_leaf(5, after_index=-1) == 6  # index 5
        # Block 9's occurrences are 3, 8, 9; occurrence 3 was consumed.
        assert plan.consume_next_leaf(9, after_index=-1) == 1
        # Block 11 was out of bounds, so its first occurrence is still there.
        assert plan.consume_next_leaf(11, after_index=-1) == 6
        empty_ids, empty_leaves = LookaheadPlan([], num_leaves=16).take_first_occurrences(10)
        assert empty_ids.size == 0 and empty_leaves.size == 0
