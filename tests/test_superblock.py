"""Tests for the lookahead plan: one window of the trace, cut into bins."""

import tracemalloc

import numpy as np
import pytest

from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan, num_bins
from repro.datasets.kaggle import SyntheticKaggleTrace
from repro.exceptions import ConfigurationError

from conftest import bin_lists


def make_plan(**kwargs):
    # S=4: bins (5, 7, 5, 9) on leaf 3, (2, 5, 11, 7) on leaf 6, (9, 9) on leaf 1.
    addresses = [5, 7, 5, 9, 2, 5, 11, 7, 9, 9]
    return LookaheadPlan(addresses, [3, 6, 1], superblock_size=4, num_leaves=16, **kwargs)


class TestLookaheadPlan:
    def test_num_accesses_and_bins(self):
        plan = make_plan()
        assert plan.num_accesses == 10
        assert len(plan) == 3
        assert (plan.start_index, plan.stop_index) == (0, 10)
        assert plan.max_block_id == 11

    def test_consume_next_leaf_finds_the_occurrence_after_the_index(self):
        # Block 5 occurs at indices 0, 2 (bin 0) and 5 (bin 1).
        assert make_plan().consume_next_leaf(5, after_index=-1) == 3
        assert make_plan().consume_next_leaf(5, after_index=2) == 6
        assert make_plan().consume_next_leaf(5, after_index=5) is None

    def test_consume_next_leaf_for_unknown_block(self):
        assert make_plan().consume_next_leaf(999, after_index=-1) is None

    def test_consume_next_leaf_uses_each_occurrence_once(self):
        plan = make_plan()
        # Block 5 occurs at indices 0 and 2 (bin 0, leaf 3) and 5 (bin 1, leaf 6).
        assert plan.consume_next_leaf(5, after_index=-1) == 3
        # Subsequent reassignments move on to later occurrences even though
        # after_index has not advanced.
        assert plan.consume_next_leaf(5, after_index=-1) == 3  # index 2, same bin
        assert plan.consume_next_leaf(5, after_index=-1) == 6  # index 5, bin 1
        assert plan.consume_next_leaf(5, after_index=-1) is None
        assert plan.consumed_up_to == {5: 5}

    def test_consume_does_not_affect_pure_lookup(self):
        # The bin table is a function of the window alone: building it
        # consumes nothing, and a lookup before it does not change it.
        fresh = make_plan()
        table = bin_lists(fresh)
        assert fresh.consumed_up_to == {}
        assert fresh.consume_next_leaf(5, after_index=-1) == 3
        plan = make_plan()
        plan.consume_next_leaf(5, after_index=-1)
        assert bin_lists(plan) == table
        assert plan.consumed_up_to == {5: 0}

    def test_metadata_bytes_derives_from_widths(self):
        # Ids fit one byte (max id 11) and so do the 16 leaves: 2 bytes/access.
        assert make_plan().metadata_bytes() == 2 * 10
        # A wide tree needs wider path fields: 2^20 leaves -> 3 leaf bytes.
        wide = LookaheadPlan([70_000, 2], [9], superblock_size=2, num_leaves=1 << 20)
        assert wide.metadata_bytes() == 2 * (3 + 3)
        assert LookaheadPlan([], [], superblock_size=4, num_leaves=16).metadata_bytes() == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            LookaheadPlan([], [], superblock_size=4, num_leaves=1)
        with pytest.raises(ConfigurationError):
            LookaheadPlan([], [], superblock_size=0, num_leaves=16)

    def test_bin_leaf_count_must_match(self):
        with pytest.raises(ConfigurationError):
            LookaheadPlan(np.arange(10), [1], superblock_size=4, num_leaves=8)

    def test_a_window_off_a_boundary_opens_with_a_short_bin(self):
        # From index 50 at S=4: 50..51, 52..55, 56..59.
        assert num_bins(10, 4, start_index=50) == 3
        plan = LookaheadPlan(
            np.arange(10), [4, 2, 7], superblock_size=4, num_leaves=8, start_index=50
        )
        # Block 1 (index 51) closes the short bin on leaf 4; block 2 (index
        # 52) opens the next one, on leaf 2.
        assert plan.consume_next_leaf(1, after_index=-1) == 4
        assert plan.consume_next_leaf(2, after_index=-1) == 2
        remaps, _ = bin_lists(plan)
        assert [len(r) for r in remaps] == [2, 4, 4]

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
        empty = LookaheadPlan([], [], superblock_size=4, num_leaves=16)
        empty_ids, empty_leaves = empty.take_first_occurrences(10)
        assert empty_ids.size == 0 and empty_leaves.size == 0

    def test_bin_table_is_what_per_bin_lookups_hand_out(self):
        # Each bin asks once per distinct block, after the bin's last index.
        table, lookup = make_plan(), make_plan()
        remaps, consumed = bin_lists(table)
        for index, (start, end) in enumerate([(0, 4), (4, 8), (8, 10)]):
            distinct = list(dict.fromkeys(lookup.addresses[start:end].tolist()))
            expected = [lookup.consume_next_leaf(b, end - 1) for b in distinct]
            assert remaps[index] == [-1 if leaf is None else leaf for leaf in expected]
            assert table.position_bin(start, table.addresses[start:]) == index
            assert table.take_bin_remaps(index) == remaps[index]
        assert remaps == [[6, 6, 1], [-1, -1, -1, -1], [-1]]
        assert consumed == [[(5, 5), (7, 7), (9, 8)], [], []]
        assert table.consumed_up_to == lookup.consumed_up_to

    def test_position_bin_refuses_other_ids_and_any_lookup(self):
        plan = make_plan()
        assert plan.position_bin(4, plan.addresses[4:]) == -1  # not next in line
        assert plan.position_bin(0, [5, 7, 5, 8]) == -1  # not the planned ids
        assert plan.position_bin(0, plan.addresses[:4]) == 0
        plan.consume_next_leaf(5, after_index=3)
        assert plan.position_bin(0, plan.addresses) == -1


class TestPlanAtItsWidth:
    #: What a window the client has placed and served by position may keep
    #: per planned access: its arrays (addresses, the grouped lookup arrays,
    #: the bin table, the first occurrences) read ~75 B.  A dict of the
    #: consumed occurrences and per-bin Python lists read 200 B.
    RETAINED_BYTES_PER_ACCESS = 100

    def test_a_served_window_holds_its_plan_as_arrays(self):
        num_accesses, num_blocks = 1 << 16, 1 << 20
        trace = SyntheticKaggleTrace(num_blocks, seed=0).generate(num_accesses).addresses
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            plan = Preprocessor(4, num_leaves=1 << 18, seed=0).build_plan(trace)
            plan.take_first_occurrences(num_blocks)
            assert plan.position_bin(0, plan.addresses) == 0
            for index in range(len(plan)):
                plan.take_bin_remaps(index)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        per_access = retained / num_accesses
        assert per_access <= self.RETAINED_BYTES_PER_ACCESS, (
            f"the served plan retains {per_access:.0f} B per planned access"
        )
