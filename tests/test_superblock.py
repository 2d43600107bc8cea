"""Tests for the lookahead plan: one window of the trace, cut into bins."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan, num_bins
from repro.datasets.kaggle import SyntheticKaggleTrace
from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig

from conftest import bin_lists
from oracle import ObjectLAORAMClient
from test_trace_contract import assert_twins_agree


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
        # The remaps by position are a function of the window alone:
        # reading them consumes nothing, and a lookup does not change them.
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

    def test_the_toy_windows_bins(self):
        # Each bin hands its distinct blocks their next bin's leaf and
        # consumes that occurrence; the property below checks this shape
        # on random windows.
        remaps, consumed = bin_lists(make_plan())
        assert remaps == [[6, 6, 1], [-1, -1, -1, -1], [-1]]
        assert consumed == [[(5, 5), (7, 7), (9, 8)], [], []]

    def test_follows_refuses_other_ids_and_any_lookup(self):
        plan = make_plan()
        assert not plan.follows(4, plan.addresses[4:])  # not next in line
        assert not plan.follows(0, [5, 7, 5, 8])  # not the planned ids
        assert plan.follows(0, plan.addresses[:4])
        plan.consume_next_leaf(5, after_index=3)
        assert not plan.follows(0, plan.addresses)


NUM_BLOCKS = 48


@st.composite
def windows(draw):
    """A window with hot ids, its bins and when its requests leave the plan.

    Returns ``(S, addresses, start_index, bin_leaves, switch, bound)``: the
    first ``switch`` bins go by position, and ``bound`` (``None``: no
    placement) is what trusted placement takes planned ids below.
    """
    size = draw(st.integers(min_value=1, max_value=8))
    hot = draw(st.lists(st.integers(0, NUM_BLOCKS - 2), min_size=1, max_size=3))
    block = st.one_of(st.sampled_from(hot), st.integers(0, NUM_BLOCKS - 2))
    addresses = draw(st.lists(block, min_size=1, max_size=60))
    start = draw(st.integers(min_value=0, max_value=3 * size))
    count = num_bins(len(addresses), size, start)
    leaves = draw(st.lists(st.integers(0, 15), min_size=count, max_size=count))
    switch = draw(st.integers(min_value=0, max_value=count))
    bound = draw(st.none() | st.integers(min_value=0, max_value=NUM_BLOCKS))
    return size, addresses, start, leaves, switch, bound


def bins_of(size, addresses, start):
    """``(lo, hi)`` window offsets of each bin."""
    lo = 0
    while lo < len(addresses):
        hi = min(lo + size - (start + lo) % size, len(addresses))
        yield lo, hi
        lo = hi


class TestByPositionEqualsLookups:
    """Remaps by position are what per-id lookups hand out, bin after bin."""

    @settings(max_examples=60, deadline=None)
    @given(windows())
    # The toy window of make_plan(), every bin by position.
    @example((4, [5, 7, 5, 9, 2, 5, 11, 7, 9, 9], 0, [3, 6, 1], 3, None))
    def test_remaps_and_consumption_match_at_every_bin_boundary(self, case):
        size, addresses, start, leaves, switch, bound = case
        position, lookup = (
            LookaheadPlan(addresses, leaves, size, num_leaves=16, start_index=start)
            for _ in range(2)
        )
        if bound is not None:
            ids, first = position.take_first_occurrences(bound)
            assert first.tolist() == [lookup.consume_next_leaf(b, -1) for b in ids.tolist()]
            assert position.consumed_up_to == lookup.consumed_up_to
        for index, (lo, hi) in enumerate(bins_of(size, addresses, start)):
            distinct = list(dict.fromkeys(addresses[lo:hi]))
            expected = [lookup.consume_next_leaf(b, start + hi - 1) for b in distinct]
            if index < switch:
                assert position.follows(start + lo, addresses[lo:])
                got = position.take_bin_remaps(start + lo, addresses[lo:hi])
                assert got == [-1 if leaf is None else leaf for leaf in expected]
            else:
                got = [position.consume_next_leaf(b, start + hi - 1) for b in distinct]
                assert got == expected
                assert not position.follows(start + hi, addresses[hi:])
            assert position.consumed_up_to == lookup.consumed_up_to

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(windows(), st.booleans())
    def test_the_client_serves_by_position_what_the_reference_looks_up(self, case, fat):
        size, addresses, lead, _, switch, bound = case
        twins = [
            client(
                LAORAMConfig(
                    oram=ORAMConfig(
                        num_blocks=NUM_BLOCKS, block_size_bytes=16, fat_tree=fat, seed=5
                    ),
                    superblock_size=size,
                )
            )
            for client in (ObjectLAORAMClient, LAORAMClient)
        ]

        def served(*request):
            for engine in twins:
                engine.access_many(list(request))
            reference, fast = twins
            assert fast.trace_cursor == reference.trace_cursor
            assert fast.plan.consumed_up_to == reference.plan.consumed_up_to
            assert_twins_agree(reference, fast)

        for engine in twins:
            # ``lead`` accesses before the window put it off a boundary.
            engine.access_many(list(range(lead)))
            plan = engine.preprocess(addresses, start_index=lead)
            if not lead and bound is not None:
                engine.apply_initial_placement(plan)
        bins = list(bins_of(size, addresses, lead))
        for lo, hi in bins[:switch]:
            served(*addresses[lo:hi])
        if switch < len(bins):
            # Leave the plan mid-window: one id it does not plan next, then
            # the rest in requests that end off the bin boundaries.
            served(NUM_BLOCKS - 1)
            rest = addresses[bins[switch][0] :]
            for lo in range(0, len(rest), size + 1):
                served(*rest[lo : lo + size + 1])
        assert [engine.bins_by_position for engine in twins] == [0, switch]


class TestPlanAtItsWidth:
    #: What a window the client has placed and served by position may keep
    #: per planned access: its records (addresses, ``next``, the packed bin
    #: remaps, the bin leaves, each planned id and its first offset) read
    #: ~32 B.  A
    #: second copy of the window (sorted lookup arrays, a bin table) read
    #: ~75 B; a dict of the consumed occurrences and per-bin lists 200 B.
    RETAINED_BYTES_PER_ACCESS = 50

    def test_a_served_window_holds_its_plan_as_arrays(self):
        num_accesses, num_blocks = 1 << 16, 1 << 20
        trace = SyntheticKaggleTrace(num_blocks, seed=0).generate(num_accesses).addresses
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            plan = Preprocessor(4, num_leaves=1 << 18, seed=0).build_plan(trace)
            plan.take_first_occurrences(num_blocks)
            assert plan.follows(0, plan.addresses)
            for start in range(0, num_accesses, 4):
                plan.take_bin_remaps(start, plan.addresses[start : start + 4].tolist())
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        per_access = retained / num_accesses
        assert per_access <= self.RETAINED_BYTES_PER_ACCESS, (
            f"the served plan retains {per_access:.0f} B per planned access"
        )
