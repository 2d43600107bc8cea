"""Tests for the array-backed engines: invariants, equivalence, regressions.

Covers the vectorized ``PathORAM`` / ``LAORAMClient`` stack (C-table stash,
slot-array tree, plan-array execution), its decision-for-decision
equivalence with the per-object reference engines (``tests/oracle/``),
and regression tests for the plan-consumption and stash-iteration bugs
fixed alongside it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.superblock import LookaheadPlan
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.experiments.configs import PAPER_CONFIG_LABELS, build_oram_config
from repro.oram.path_oram import PathORAM
from repro.oram.config import ORAMConfig
from repro.oram.stash import ArrayStash
from repro.oram.tree import MAX_NUM_BLOCKS

from test_laoram import assert_plan_conformance
from test_trace_contract import assert_twins_agree

from oracle import (
    ObjectLAORAMClient,
    build_engine,
    engine_state,
    fetch_path,
    reference_families,
)


def make_laoram_config(num_blocks=256, superblock_size=4, seed=13, **oram_kwargs):
    return LAORAMConfig(
        oram=ORAMConfig(
            num_blocks=num_blocks, block_size_bytes=64, seed=seed, **oram_kwargs
        ),
        superblock_size=superblock_size,
    )


def put(stash, block_ids, leaves):
    stash.extend(np.asarray(block_ids, dtype=np.int64), np.asarray(leaves, dtype=np.int64))


class TestArrayStash:
    def filled(self, **kwargs):
        stash = ArrayStash(**kwargs)
        put(stash, [5, 9, 2], [1, 3, 7])
        return stash

    def test_insertion_order_and_membership(self):
        stash = self.filled()
        assert len(stash) == 3
        assert stash.block_ids == list(stash) == [5, 9, 2]
        assert stash.items() == stash.entries.items() == [(5, 1), (9, 3), (2, 7)]
        assert 9 in stash and 4 not in stash
        assert stash.leaf_of(9) == 3
        with pytest.raises(KeyError):
            stash.leaf_of(4)

    def test_a_negative_id_is_simply_absent(self):
        # The dense id -> row index used to wrap: ``row_of[-1]`` answered
        # for the last block.
        stash = ArrayStash()
        put(stash, [63], [5])
        assert -1 not in stash
        assert not stash.pop(-1)
        with pytest.raises(KeyError):
            stash.leaf_of(-1)

    def test_remove_and_readd_moves_to_end(self):
        stash = self.filled()
        assert stash.pop(9)
        assert not stash.pop(9)
        put(stash, [9], [4])
        assert stash.block_ids == [5, 2, 9]
        assert stash.leaf_of(9) == 4

    def test_entries_are_python_ints(self):
        # numpy ints go in; the table holds C ints and hands out Python ints.
        stash = self.filled()
        put(stash, [11], [4])
        for block_id, leaf in stash.items():
            assert type(block_id) is int and type(leaf) is int

    def test_capacity_overflow_keeps_what_it_was_given(self):
        stash = ArrayStash(capacity=2)
        put(stash, [1, 2], [0, 1])
        with pytest.raises(StashOverflowError):
            put(stash, [3], [2])
        with pytest.raises(StashOverflowError):
            put(stash, [4], [0])
        # Nothing handed to an over-full stash is dropped.
        assert stash.block_ids == [1, 2, 3, 4]
        with pytest.raises(ConfigurationError):
            ArrayStash(capacity=0)


class TestEngineEquivalence:
    """LAORAM-specific equivalence sweeps (fat tree x superblock size).

    The family-by-family equivalence guarantee lives in
    ``tests/test_engine_equivalence.py``; this class keeps the LAORAM
    configuration sweep that exercises geometries the cross-family harness
    does not.
    """

    @pytest.mark.parametrize("fat_tree", [False, True])
    @pytest.mark.parametrize("superblock_size", [2, 4, 8])
    def test_run_trace_counters_match(self, fat_tree, superblock_size):
        trace = ZipfTraceGenerator(512, exponent=1.2, seed=5).generate(6_000)
        config = make_laoram_config(
            num_blocks=512, superblock_size=superblock_size, fat_tree=fat_tree
        )
        reference = ObjectLAORAMClient(config)
        reference.run_trace(trace.addresses)
        fast = LAORAMClient(config)
        fast.run_trace(trace.addresses)
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert fast.stash.block_ids == reference.stash.block_ids

    @pytest.mark.parametrize("lookahead_accesses", [None, 500])
    def test_consecutive_run_traces_match(self, lookahead_accesses):
        # A second run_trace used to die in apply_initial_placement ("only
        # before any access"): only the caller could know to switch the
        # placement off.  Both clients now replay trace after trace, and
        # stay bit-identical while they do.
        first = ZipfTraceGenerator(512, exponent=1.2, seed=5).generate(2_000)
        second = ZipfTraceGenerator(512, exponent=1.1, seed=6).generate(1_500)
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=512, block_size_bytes=64, seed=9),
            superblock_size=4,
            lookahead_accesses=lookahead_accesses,
        )
        engines = [ObjectLAORAMClient(config), LAORAMClient(config)]
        for engine in engines:
            engine.run_trace(first.addresses)
            engine.run_trace(second.addresses)
            assert engine.statistics.logical_accesses == 3_500
            assert_plan_conformance(engine)
        reference, fast = engines
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert fast.stash.block_ids == reference.stash.block_ids

    def test_payloads_round_trip_identically(self):
        config = make_laoram_config(num_blocks=128, superblock_size=4)
        rng = np.random.default_rng(3)
        reads = rng.integers(0, 128, size=200).tolist()
        writes = rng.integers(0, 128, size=64).tolist()
        values = [f"payload-{i}" for i in range(len(writes))]
        outputs = []
        for cls in (ObjectLAORAMClient, LAORAMClient):
            engine = cls(config)
            engine.write_many(writes, values)
            outputs.append(engine.access_many(reads))
        assert outputs[0] == outputs[1]


class TestRandomizedInvariants:
    """Mixed workloads keep both engines conserving every block."""

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_mixed_workload_invariants(self, engine_cls):
        num_blocks = 256
        config = make_laoram_config(num_blocks=num_blocks, superblock_size=4)
        engine = engine_cls(config)
        rng = np.random.default_rng(17)
        trace = rng.integers(0, num_blocks, size=2_048)
        engine.run_trace(trace)
        assert_plan_conformance(engine)
        for _ in range(10):
            op = rng.integers(0, 3)
            if op == 0:
                ids = rng.integers(0, num_blocks, size=int(rng.integers(1, 40)))
                engine.access_many(ids.tolist())
            elif op == 1:
                ids = rng.integers(0, num_blocks, size=int(rng.integers(1, 20)))
                engine.write_many(
                    ids.tolist(), [f"v{int(b)}" for b in ids]
                )
            else:
                engine.access(int(rng.integers(0, num_blocks)))
            assert_plan_conformance(engine)
        assert engine.statistics.logical_accesses > 2_048

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_windowed_trace_invariants(self, engine_cls):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=128, block_size_bytes=32, seed=29),
            superblock_size=4,
            lookahead_accesses=256,
        )
        trace = ZipfTraceGenerator(128, seed=8).generate(1_500)
        engine = engine_cls(config)
        engine.run_trace(trace.addresses)
        assert_plan_conformance(engine)


class TestPlacementRegressions:
    """Regression coverage for the two initial-placement bugfixes."""

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_placement_with_populated_stash_conserves_blocks(self, engine_cls):
        # Placement must cope with a populated stash (the state bulk-load
        # overflow leaves behind): move a few whole paths into the stash,
        # then re-lay the table out.  Popping stash entries mid-iteration
        # would skip or corrupt blocks here.
        config = make_laoram_config(num_blocks=256, superblock_size=2, seed=3)
        engine = engine_cls(config)
        leaves = {engine.position_map.peek(b) for b in range(16)}
        for leaf in leaves:
            fetch_path(engine, leaf)
        assert len(engine.stash) > 0
        trace = np.arange(256, dtype=np.int64)
        plan = engine.preprocess(trace)
        engine.apply_initial_placement(plan)
        assert_plan_conformance(engine)

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_placement_consumes_first_occurrence(self, engine_cls):
        # Block 9 is planned in bins 1 (leaf 6) and 2 (leaf 1).  Placement
        # uses occurrence 0's leaf (6); the first subsequent reassignment
        # must move on to occurrence 1's leaf (1).  Before the fix the same
        # leaf 6 was handed out twice, a linkable repeated-leaf observation.
        config = make_laoram_config(num_blocks=64, superblock_size=2, seed=5)
        engine = engine_cls(config)
        plan = LookaheadPlan(
            [1, 2, 9, 3, 9, 4], [3, 6, 1], 2, num_leaves=engine.config.num_leaves
        )
        engine.set_plan(plan)
        engine.apply_initial_placement(plan)
        assert engine.position_map.peek(9) == 6
        engine.access(9)  # trace cursor 0 < occurrence index 2
        assert engine.position_map.peek(9) == 1
        assert_plan_conformance(engine)

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_placement_only_applies_to_first_window(self, engine_cls):
        # Windowed traces plan window by window; placement is trusted set-up
        # and requires a counter at zero, so run_trace applies it on the
        # first window of an untouched engine only — never on a later
        # window, a later call, or once any access has been served.
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=64, block_size_bytes=32, seed=31),
            superblock_size=2,
            lookahead_accesses=64,
        )
        trace = ZipfTraceGenerator(64, seed=4).generate(300)

        def spy_on_placement(engine):
            placed = []
            apply = engine.apply_initial_placement
            engine.apply_initial_placement = lambda plan: (
                placed.append(plan), apply(plan)
            )
            return placed

        engine = engine_cls(config)
        placed = spy_on_placement(engine)
        engine.run_trace(trace.addresses)  # five windows
        assert len(placed) == 1
        engine.run_trace(trace.addresses)
        assert len(placed) == 1
        assert_plan_conformance(engine)

        touched = engine_cls(config)
        placed = spy_on_placement(touched)
        touched.access(0)
        touched.run_trace(trace.addresses)
        assert placed == []
        assert_plan_conformance(touched)

    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_placement_rejected_after_accesses(self, engine_cls):
        config = make_laoram_config(num_blocks=64, superblock_size=2)
        engine = engine_cls(config)
        plan = engine.preprocess(np.arange(64, dtype=np.int64))
        engine.access(0)
        with pytest.raises(ConfigurationError):
            engine.apply_initial_placement(plan)


    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_placement_reports_a_missing_block(self, engine_cls):
        config = make_laoram_config(num_blocks=64, superblock_size=2)
        engine = engine_cls(config)
        plan = engine.preprocess(np.arange(8, dtype=np.int64))
        lost = next(b for b in range(8) if b not in engine.stash)
        leaf = engine.position_map.peek(lost)
        if engine_cls is LAORAMClient:
            engine.tree.remove_many(np.array([lost]), np.array([leaf]))
        else:
            assert engine._remove_from_path(leaf, lost) is not None
        with pytest.raises(BlockNotFoundError):
            engine.apply_initial_placement(plan)

    def test_placement_overflowing_a_bounded_stash_is_reported(self):
        # Forty blocks planned onto one path of a 64-block tree: the path
        # holds far fewer, and the stash is capped at four.  Every block
        # that found no slot is stashed before the raise, on both clients.
        config = make_laoram_config(num_blocks=64, superblock_size=2, stash_capacity=4)
        twins = [ObjectLAORAMClient(config), LAORAMClient(config)]
        for engine in twins:
            plan = LookaheadPlan(
                np.arange(40), [3], 40, num_leaves=engine.config.num_leaves
            )
            with pytest.raises(StashOverflowError):
                engine.apply_initial_placement(plan)
            assert len(engine.stash) > 4
            assert engine.total_real_blocks() == 64
        assert_twins_agree(*twins)


class TestPlacementIsSlotIdentical:
    """Both clients relocate by one rule, so the whole layout agrees.

    The statistics of the trace that follows would agree under many
    layouts; here the tree (every bucket, in insertion order), the stash
    order and the position map are compared after each placement and after
    the trace, under both maps.
    """

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize("label", ["Fat/S4", "Fat/S8", "Normal/S8"])
    def test_layout_after_placement_repeat_and_trace(self, label, recursive, seed):
        config = build_oram_config(
            num_blocks=512, seed=seed, recursive_posmap=recursive,
            posmap_positions_per_block=4, posmap_cutoff_bytes=64,
        )
        trace = ZipfTraceGenerator(512, exponent=1.2, seed=seed + 1).generate(1_500)
        stages = []
        for fast in (False, True):
            engine = build_engine(label, config, fast=fast)
            # A populated stash (trusted set-up, nothing charged): planned
            # blocks leave it, the others must keep their order.
            for block_id in range(8):
                fetch_path(engine, engine.position_map.peek(block_id))
            built = engine_state(engine)
            states = []
            engine.apply_initial_placement(engine.preprocess(trace.addresses))
            states.append(engine_state(engine))
            assert states[0]["slots"] != built["slots"]
            assert states[0]["stash"] and states[0]["stash"] != built["stash"]
            # A fresh plan before any access, as a set-up probe followed by
            # run_trace applies it (run_trace places a third time itself).
            engine.apply_initial_placement(engine.preprocess(trace.addresses[:600]))
            states.append(engine_state(engine))
            engine.run_trace(trace.addresses)
            states.append(engine_state(engine))
            assert_plan_conformance(engine)
            stages.append(states)
        for reference, fast_state in zip(*stages):
            assert_twins_agree(reference, fast_state)
        assert stages[0][2]["statistics"].logical_accesses == 1_500


class TestPlanLeafValidation:
    @pytest.mark.parametrize("engine_cls", [ObjectLAORAMClient, LAORAMClient])
    def test_out_of_range_plan_leaf_rejected(self, engine_cls):
        # A plan built for a wider tree must fail at the first remap on both
        # engines; the fast engine's direct position-map writes used to slip
        # past PositionMap.set validation.
        config = make_laoram_config(num_blocks=64, superblock_size=2)
        engine = engine_cls(config)
        bad_leaf = engine.config.num_leaves + 5
        plan = LookaheadPlan(
            [1, 2, 1, 4], [3, bad_leaf], 2, num_leaves=2 * engine.config.num_leaves
        )
        engine.set_plan(plan)
        with pytest.raises(ConfigurationError):
            engine.access_many([1, 2])


class TestHarnessIntegration:
    def test_build_engine_fast_selects_vectorized_twins(self):
        oram = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=1)
        assert isinstance(build_engine("PathORAM", oram, fast=True), PathORAM)
        assert isinstance(
            build_engine("Normal/S4", oram, fast=True), LAORAMClient
        )
        assert isinstance(build_engine("Normal/S4", oram), ObjectLAORAMClient)

    @pytest.mark.parametrize("label", PAPER_CONFIG_LABELS)
    def test_experiment_result_equal_on_both_backends(self, label):
        """What lets the replay matrix use the array engines: its cell
        runner's whole record (snapshot, simulated time, stash history), not
        the counters."""
        from repro.datasets.base import AccessTrace
        from repro.experiments.matrix import Cell, replay

        oram = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=5)
        rng = np.random.default_rng(12)
        addresses = rng.integers(0, 128, size=1_000).astype(np.int64)
        trace = AccessTrace("unit", 128, addresses)
        cell = Cell(label, "unit", 1_000, 12, oram, record_stash_history=True)
        with reference_families():
            reference = replay(cell, trace)
        assert replay(cell, trace) == reference
        assert len(reference.stash_history) > 0


class TestTreeAtItsWidth:
    """The array tree stores ids in four bytes and builds in bounded chunks."""

    @pytest.mark.parametrize("engine_cls", [PathORAM, LAORAMClient])
    def test_block_ids_past_the_slot_width_are_refused(self, engine_cls):
        """Refused before anything is allocated for the 2^31 blocks."""
        oram = ORAMConfig(num_blocks=MAX_NUM_BLOCKS + 1, block_size_bytes=64)
        config = (
            LAORAMConfig(oram=oram, superblock_size=4)
            if engine_cls is LAORAMClient
            else oram
        )
        with pytest.raises(ConfigurationError, match="num_blocks"):
            engine_cls(config)

    #: What a build may hold beyond its persistent arrays: one placement
    #: chunk's temporaries (a dozen 2^16-entry arrays, ~6 MiB), the split
    #: leaf tables and the 4-byte id range the bulk load places.
    BUILD_SLACK_BYTES = 12 << 20

    def test_build_peaks_at_its_persistent_arrays_plus_a_fixed_slack(self):
        """A 2^18-block Fat/S4 build never holds a tree-sized temporary.

        Before placement was chunked, its sort keys and their sorted copies
        were as large as the tree (peak 26 MiB over the arrays here).
        """
        config = build_oram_config(1 << 18, seed=11)
        tracemalloc.start()
        try:
            engine = build_engine("Fat/S4", config, fast=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tree = engine.tree
        persistent = (
            tree.slot_array.nbytes
            + tree.bucket_occupancies.nbytes
            + engine.position_map.top_map_bytes
        )
        assert engine.total_real_blocks() == 1 << 18
        assert peak <= persistent + self.BUILD_SLACK_BYTES, (
            f"build peaked {(peak - persistent) / 2**20:.1f} MiB over its "
            f"{persistent / 2**20:.1f} MiB of persistent arrays"
        )
