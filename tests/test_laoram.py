"""Behavioural tests for the LAORAM client."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.superblock import LookaheadPlan
from repro.datasets.permutation import PermutationTraceGenerator
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.oram.path_oram import PathORAM
from repro.oram.base import ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.experiments.configs import build_oram_config

from oracle import ObjectLAORAMClient, ObjectPathORAM, build_engine, engine_state, fetch_path
from conftest import bin_lists, closed_form_clock
from test_trace_contract import assert_twins_agree, tree_layout


@pytest.fixture
def config():
    return LAORAMConfig(
        oram=ORAMConfig(num_blocks=256, block_size_bytes=64, seed=13),
        superblock_size=4,
    )


def assert_plan_conformance(engine, plan=None):
    """What trusted placement owes the trace that follows, on either backend.

    Every planned block is mapped to the leaf of its first planned bin and
    sits on that path or in the stash; every block, planned or not, is stored
    exactly once, in a bucket its position-map leaf passes through (or in
    the stash), carrying that leaf as its tag; no bucket and no bounded
    stash holds more than its capacity.  Without a plan it is the engine
    invariant alone, which holds at any point between accesses.
    """
    num_blocks, depth = engine.config.num_blocks, engine.config.depth
    leaves = engine.position_map.as_array()
    first_leaf = {}
    if plan is not None:
        start, size = plan.start_index, plan.superblock_size
        bins = (start + np.arange(plan.num_accesses)) // size - start // size
        for block_id, leaf in zip(
            plan.addresses.tolist(), plan.bin_leaves[bins].tolist()
        ):
            first_leaf.setdefault(block_id, leaf)
    for block_id, leaf in first_leaf.items():
        if block_id < num_blocks:
            assert leaves[block_id] == leaf
    in_tree = []
    for bucket, block_ids in tree_layout(engine).items():
        level = (bucket + 1).bit_length() - 1
        node = bucket + 1 - (1 << level)
        assert len(block_ids) <= engine.tree.bucket_capacities[level]
        for block_id in block_ids:
            assert leaves[block_id] >> (depth - level) == node
        in_tree += block_ids
    stashed = engine.stash.block_ids
    assert sorted(in_tree + stashed) == list(range(num_blocks))
    assert engine.stash.capacity is None or len(stashed) <= engine.stash.capacity
    tags = {block_id: engine.stash.leaf_of(block_id) for block_id in stashed}
    assert all(leaves[block_id] == leaf for block_id, leaf in tags.items())


class TestConstruction:
    def test_requires_laoram_config(self):
        with pytest.raises(ConfigurationError):
            ObjectLAORAMClient(ORAMConfig(num_blocks=64))

    def test_describe_matches_paper_notation(self, config):
        assert ObjectLAORAMClient(config).describe() == "Normal/S4"
        fat = LAORAMConfig(oram=config.oram.with_overrides(fat_tree=True), superblock_size=8)
        assert ObjectLAORAMClient(fat).describe() == "Fat/S8"

    def test_superblock_size_property(self, config):
        assert ObjectLAORAMClient(config).superblock_size == 4


class TestRunTrace:
    def test_all_accesses_are_served(self, config, permutation_trace):
        client = ObjectLAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.statistics.logical_accesses == len(permutation_trace)

    def test_block_conservation(self, config, permutation_trace):
        client = ObjectLAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.total_real_blocks() == 256

    def test_fewer_path_reads_than_pathoram(self, config, permutation_trace):
        """The headline effect: superblocks cut path reads by roughly S."""
        client = ObjectLAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        baseline = ObjectPathORAM(config.oram.with_overrides(seed=99))
        baseline.access_many(permutation_trace.addresses)
        ours, theirs = client.statistics, baseline.statistics
        assert ours.path_reads + ours.dummy_reads < theirs.path_reads + theirs.dummy_reads

    def test_windowed_lookahead(self, permutation_trace):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=256, block_size_bytes=64, seed=13),
            superblock_size=4,
            lookahead_accesses=64,
        )
        client = ObjectLAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.statistics.logical_accesses == len(permutation_trace)

    def test_payloads_survive_run_trace(self, config, permutation_trace):
        client = ObjectLAORAMClient(config)
        client.load_payloads({i: f"row{i}".encode() for i in range(256)})
        client.run_trace(permutation_trace.addresses)
        assert client.read(17) == b"row17"


class TestSuperblockAccess:
    def test_access_superblock_returns_payloads_in_order(self, config):
        client = ObjectLAORAMClient(config)
        client.load_payloads({i: bytes([i]) for i in range(256)})
        payloads = client.access_superblock([3, 10, 3, 200])
        assert payloads == [bytes([3]), bytes([10]), bytes([3]), bytes([200])]

    def test_duplicate_blocks_in_bin_cost_one_fetch(self, config):
        client = ObjectLAORAMClient(config)
        client.access_superblock([7, 7, 7, 7])
        assert client.statistics.path_reads <= 1

    def test_access_many_groups_into_bins(self, config):
        client = ObjectLAORAMClient(config)
        client.access_many(list(range(16)))
        stats = client.statistics
        assert stats.logical_accesses == 16
        # At most one path read per bin of four plus any eviction dummies.
        assert stats.path_reads <= 16

    def test_write_many_round_trip(self, config):
        client = ObjectLAORAMClient(config)
        ids = [3, 9, 30, 77, 100]
        client.write_many(ids, [f"payload-{i}".encode() for i in ids])
        for block_id in ids:
            assert client.read(block_id) == f"payload-{block_id}".encode()

    def test_write_many_counts_accesses_and_batches(self, config):
        client = ObjectLAORAMClient(config)
        client.write_many(list(range(16)), [b"x"] * 16)
        stats = client.statistics
        assert stats.logical_accesses == 16
        assert stats.path_reads <= 16

    def test_write_many_length_mismatch_rejected(self, config):
        client = ObjectLAORAMClient(config)
        with pytest.raises(ConfigurationError):
            client.write_many([1, 2], [b"only-one"])


class TestInitialPlacement:
    def test_placement_uses_first_occurrence_path(self, config):
        client = ObjectLAORAMClient(config)
        plan = client.preprocess([4, 9, 4, 30])
        client.apply_initial_placement(plan)
        assert client.position_map.peek(4) == plan.bin_leaves[0]
        assert client.position_map.peek(30) == plan.bin_leaves[0]

    def test_placement_preserves_block_count_and_payloads(self, config):
        client = ObjectLAORAMClient(config)
        client.load_payloads({5: b"five"})
        plan = client.preprocess(np.arange(256))
        client.apply_initial_placement(plan)
        assert client.total_real_blocks() == 256
        assert client.read(5) == b"five"

    def test_placement_after_accesses_is_rejected(self, config):
        client = ObjectLAORAMClient(config)
        client.read(0)
        plan = client.preprocess([1, 2, 3, 4])
        with pytest.raises(ConfigurationError):
            client.apply_initial_placement(plan)

    def test_first_epoch_is_coalesced_after_placement(self, config):
        """With plan-driven initial placement a bin costs ~1 read from access one."""
        client = ObjectLAORAMClient(config)
        trace = PermutationTraceGenerator(256, seed=1).generate(256)
        client.run_trace(trace.addresses)
        stats = client.statistics
        assert stats.path_reads <= len(trace) // config.superblock_size + 8


CLIENTS = [ObjectLAORAMClient, LAORAMClient]


def placement_config(superblock_size=4, recursive=False, **oram_kwargs):
    # chi=4 with a 128-byte cutoff puts recursion levels under 256 blocks.
    oram = ORAMConfig(
        num_blocks=256, block_size_bytes=64, seed=13, recursive_posmap=recursive,
        posmap_positions_per_block=4, posmap_cutoff_bytes=128, **oram_kwargs,
    )
    return LAORAMConfig(oram=oram, superblock_size=superblock_size)


def one_bin_plan(engine, block_ids, leaf):
    return LookaheadPlan(
        block_ids, [leaf], len(block_ids), num_leaves=engine.config.num_leaves
    )


class TestPlanConformance:
    """Trusted placement moves the planned blocks only, and moves them right."""

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize("fat_tree", [False, True], ids=["normal", "fat"])
    @pytest.mark.parametrize("client", CLIENTS)
    def test_holds_after_placement_repeated_placement_and_trace(
        self, client, fat_tree, recursive
    ):
        engine = client(placement_config(8, recursive, fat_tree=fat_tree))
        trace = ZipfTraceGenerator(256, exponent=1.1, seed=2).generate(700).addresses
        untouched = np.setdiff1d(np.arange(256), trace)
        before = engine.position_map.as_array()
        plan = engine.preprocess(trace)
        engine.apply_initial_placement(plan)
        assert_plan_conformance(engine, plan)
        # Blocks the plan does not name keep their leaves.
        assert untouched.size
        after = engine.position_map.as_array()
        assert np.array_equal(after[untouched], before[untouched])
        # A fresh plan before any access (a set-up probe, then run_trace).
        plan = engine.preprocess(trace[:300])
        engine.apply_initial_placement(plan)
        assert_plan_conformance(engine, plan)
        engine.run_trace(trace)
        assert_plan_conformance(engine)
        assert engine.statistics.logical_accesses == trace.size

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_planned_block_already_in_the_stash(self, recursive):
        engines = [client(placement_config(4, recursive)) for client in CLIENTS]
        for engine in engines:
            leaf = engine.position_map.peek(40)
            fetch_path(engine, leaf)  # trusted set-up: nothing is charged
            stashed = engine.stash.block_ids
            assert 40 in stashed and len(stashed) > 2
            bystanders = [b for b in stashed if b not in (40, stashed[-1])]
            # 40 and the last stashed block move, together with two blocks
            # that are still in the tree; the other stash entries stay put.
            moved = sorted([40, stashed[-1], 200, 201])
            assert not {200, 201} & set(stashed)
            plan = one_bin_plan(engine, moved, leaf=(leaf + 5) % engine.config.num_leaves)
            engine.apply_initial_placement(plan)
            assert_plan_conformance(engine, plan)
            assert engine.stash.block_ids[: len(bystanders)] == bystanders
            assert 40 not in engine.stash
        assert_twins_agree(*engines)

    def test_block_whose_new_leaf_is_its_old_one(self):
        engines = [client(placement_config(2)) for client in CLIENTS]
        for engine in engines:
            leaf = engine.position_map.peek(17)
            layout = tree_layout(engine)
            (bucket,) = [index for index, ids in layout.items() if 17 in ids]
            plan = one_bin_plan(engine, [17], leaf)
            engine.apply_initial_placement(plan)
            assert_plan_conformance(engine, plan)
            # Detached and placed again on the same path: it re-enters as
            # the last occupant of the deepest bucket with room, which is
            # its own bucket or one below it — never one nearer the root.
            (landed,) = [
                index for index, ids in tree_layout(engine).items() if 17 in ids
            ]
            assert landed >= bucket and tree_layout(engine)[landed][-1] == 17
        assert_twins_agree(*engines)

    def test_bin_of_eight_overflows_a_four_slot_leaf_bucket(self):
        engines = [client(placement_config(8)) for client in CLIENTS]
        for engine in engines:
            depth = engine.config.depth
            assert engine.tree.bucket_capacities[depth] == 4
            members = list(range(100, 108))
            plan = one_bin_plan(engine, members, leaf=9)
            engine.apply_initial_placement(plan)
            assert_plan_conformance(engine, plan)
            layout = tree_layout(engine)
            leaf_bucket = (1 << depth) - 1 + 9
            assert len(layout[leaf_bucket]) == 4
            path = [(1 << level) - 1 + (9 >> (depth - level)) for level in range(depth + 1)]
            # What the leaf bucket could not take climbed the path (or, if
            # the whole path is full, went to the stash), in ascending id
            # order: lower ids claimed the deeper slots.
            homes = {
                b: index for index in path for b in layout.get(index, []) if b in members
            }
            assert set(members) == set(homes) | set(engine.stash.block_ids) & set(members)
            placed = [b for b in members if b in homes]
            assert [homes[b] for b in placed] == sorted(homes.values(), reverse=True)
        assert_twins_agree(*engines)


class TestPlanAlignment:
    """Planned bins end where executed bins do: on global superblock boundaries."""

    @staticmethod
    def paths_per_row(client, served_before: int) -> float:
        # Fat/S8 over 2^14 blocks; the trace is what a trainer issues: each
        # minibatch of 32 rows is fetched, then written back.
        oram = ORAMConfig(num_blocks=1 << 14, fat_tree=True, seed=3)
        engine = client(LAORAMConfig(oram=oram, superblock_size=8))
        ids = ZipfTraceGenerator(1 << 14, exponent=1.1, seed=5).generate(1 << 14)
        trace = np.concatenate(
            [np.tile(ids.addresses[at : at + 32], 2) for at in range(0, 1 << 14, 32)]
        )
        engine.access_many(np.arange(served_before))
        before = engine.statistics.path_reads
        engine.preprocess(trace, start_index=engine.trace_cursor)
        engine.access_many(trace)
        return (engine.statistics.path_reads - before) / len(trace)

    @pytest.mark.parametrize("client", CLIENTS)
    def test_a_plan_starting_off_a_boundary_coalesces_like_an_aligned_one(self, client):
        # Cut at start_index + k*S, every executed bin straddled two planned
        # ones for the whole window: 0.34 paths per row against 0.22.
        aligned = self.paths_per_row(client, served_before=8)
        shifted = self.paths_per_row(client, served_before=4)
        assert shifted <= 0.24
        assert shifted <= 1.02 * aligned

    @pytest.mark.parametrize("client", CLIENTS)
    def test_window_bins_follow_the_global_boundaries(self, client, config):
        engine = client(config)
        engine.access_many([1, 2, 3, 4, 5, 6])
        window = np.arange(20, 31)
        plan = engine.preprocess(window, start_index=engine.trace_cursor)
        assert len(plan) == 4
        remaps, _ = bin_lists(plan)
        assert [len(r) for r in remaps] == [2, 4, 4, 1]
        # S=4 from index 6: a short first bin up to 8, then 8..12, 12..16,
        # and a ragged last bin 16..17 — the plan's bins, which only the
        # array client takes by position.
        bins = list(engine._aligned_bins(window))
        assert [(start, ids) for start, ids, _ in bins] == [
            (6, [20, 21]), (8, [22, 23, 24, 25]), (12, [26, 27, 28, 29]), (16, [30]),
        ]
        by_position = client is LAORAMClient
        assert [r for _, _, r in bins] == (remaps if by_position else [None] * 4)
        assert engine.bins_by_position == 4 * by_position

    @pytest.mark.parametrize("client", CLIENTS)
    def test_a_bin_ends_where_the_next_one_starts(self, client, config):
        engine = client(config)
        engine.access_many([1, 2, 3])
        request = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13]
        bins = list(engine._aligned_bins(request))
        # The bins tile the request from the cursor: each opens where the
        # one before it closed, and together they hold every id in order.
        assert bins[0][0] == 3
        for (start, ids, _), (next_start, _, _) in zip(bins, bins[1:]):
            assert start + len(ids) == next_start
        last_start, last_ids, _ = bins[-1]
        assert last_start + len(last_ids) == 3 + len(request)
        assert [b for _, ids, _ in bins for b in ids] == request
        engine.access_many(request)
        assert engine.trace_cursor == 3 + len(request)

    @pytest.mark.parametrize("client", CLIENTS)
    def test_a_bin_counts_accesses_not_unique_blocks(self, client, config):
        engine = client(config)
        engine.access_many([5, 5, 5, 5, 9, 9, 9])
        bins = list(engine._aligned_bins([9, 9, 9]))
        assert [(start, ids) for start, ids, _ in bins] == [(7, [9]), (8, [9, 9])]
        # Seven accesses and the cursor moves seven, whatever the repeats.
        assert engine.statistics.logical_accesses == 7
        assert engine.trace_cursor == 7

    @pytest.mark.parametrize("client", CLIENTS)
    def test_remaps_follow_the_bins_distinct_ids_in_first_occurrence_order(
        self, client, config
    ):
        # S=4: (5, 7, 5, 9) on leaf 3, (2, 5, 11, 7) on leaf 6, (9, 9) on leaf 1.
        engine = client(config)
        plan = LookaheadPlan(
            [5, 7, 5, 9, 2, 5, 11, 7, 9, 9], [3, 6, 1], superblock_size=4,
            num_leaves=config.oram.num_leaves,
        )
        engine.set_plan(plan)
        engine.access_many([5, 7, 5, 9])
        # Bin 0's distinct blocks 5, 7, 9 take the leaves of the bins that
        # hold their next occurrences: 6, 6 and 1.  The array client takes
        # them from the table by position, the reference looks each id up.
        assert [engine.position_map.peek(b) for b in (5, 7, 9)] == [6, 6, 1]
        assert bin_lists(plan)[0][0] == [6, 6, 1]
        assert engine.bins_by_position == (client is LAORAMClient)


class TestPlanFallback:
    def test_single_access_without_plan_behaves_like_pathoram(self, config):
        client = ObjectLAORAMClient(config)
        client.read(3)
        assert client.statistics.logical_accesses == 1
        assert client.statistics.path_reads <= 1

    def test_blocks_outside_plan_get_random_paths(self, config):
        client = ObjectLAORAMClient(config)
        client.preprocess([1, 2, 3, 4])
        client.read(200)  # not in the plan
        assert 0 <= client.position_map.peek(200) < config.oram.num_leaves

    def test_trace_cursor_advances(self, config):
        client = ObjectLAORAMClient(config)
        before = client.trace_cursor
        client.read(1)
        assert client.trace_cursor == before + 1


class CountingGenerator:
    """A generator proxy that counts scalar and sized ``integers`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.scalar = self.sized = 0

    def integers(self, *args, size=None, **kwargs):
        if size is None:
            self.scalar += 1
        else:
            self.sized += 1
        return self._rng.integers(*args, size=size, **kwargs)


class TestOneLeafStream:
    """The preprocessor, remap fallbacks and dummy reads share one stream."""

    #: Uniform ids over 1024 blocks: most blocks do not come back within a
    #: 101-access window (a ``-1`` remap, so a fallback draw), and two-slot
    #: buckets under a 24-block trigger keep background eviction busy.
    TRACE = np.random.default_rng(8).integers(0, 1024, size=2000)

    @staticmethod
    def engine(fast: bool):
        config = build_oram_config(num_blocks=1024, bucket_size=2, seed=19).with_overrides(
            eviction_threshold=24, eviction_target=16
        )
        engine = build_engine("Normal/S4", config, fast=fast)
        engine.laoram_config = dataclasses.replace(
            engine.laoram_config, lookahead_accesses=101
        )
        return engine

    def test_windows_draw_the_reference_clients_bin_leaves(self):
        states, windows = [], []
        for fast in (False, True):
            engine = self.engine(fast)
            leaves, seams = [], []

            def recording(addresses, start_index=0, _preprocess=engine.preprocess):
                if fast:
                    seams.append((engine._leaf_buf_pos, len(engine._leaf_buf)))
                plan = _preprocess(addresses, start_index=start_index)
                leaves.append(plan.bin_leaves.tolist())
                return plan

            engine.preprocess = recording
            engine.run_trace(self.TRACE)
            states.append(dict(engine_state(engine), trace_cursor=engine.trace_cursor))
            windows.append(leaves)
        assert len(windows[1]) == 20
        assert windows[1] == windows[0]
        assert_twins_agree(*states)
        assert states[0]["statistics"].dummy_reads > 0
        # Every window after the first is planned from a block the bins
        # before it left partly used.
        assert all(0 < used < size == 512 for used, size in seams[1:])

    def test_the_kernel_makes_no_scalar_draw(self):
        engine = self.engine(True)
        generator = engine.rng = CountingGenerator(engine.rng)
        # Windows by position, bins looked up under a plan they left, and
        # plan-free bins.
        engine.run_trace(self.TRACE)
        engine.access_many(self.TRACE[::-1])
        assert engine.bins_by_lookup > 0
        engine.set_plan(None)
        engine.access_many(self.TRACE[:500])
        assert engine.statistics.dummy_reads > 0
        assert generator.scalar == 0
        assert generator.sized > 0


class TestKernelFailurePaths:
    """A raise mid-bin leaves the fast client consistent and serving."""

    @staticmethod
    def conserved(engine) -> None:
        """Every block once, each where the position map says it may be (either backend)."""
        num_blocks, depth = engine.config.num_blocks, engine.config.depth
        leaves = engine.position_map.as_array()
        seen = []
        for bucket, block_ids in tree_layout(engine).items():
            level = (bucket + 1).bit_length() - 1
            node = bucket + 1 - (1 << level)
            assert np.all(leaves[block_ids] >> (depth - level) == node)
            seen += block_ids
        stash = engine.stash
        for block_id in stash.block_ids:
            assert stash.leaf_of(block_id) == leaves[block_id]
            seen.append(block_id)
        assert sorted(seen) == list(range(num_blocks))
        assert engine.total_real_blocks() == num_blocks

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_overflow_mid_bin_loses_no_block(self, recursive):
        # Plan-free S8 bins read up to eight paths before writing any back:
        # the third bin outgrows a 30-block stash on its fifth path.
        config = placement_config(8, recursive, stash_capacity=30)
        engine = LAORAMClient(config)
        trace = np.random.default_rng(4).integers(0, 256, size=400)
        with pytest.raises(StashOverflowError):
            engine.access_many(trace)
        failed = engine.statistics
        # Two bins went through; the third was charged, read five paths and
        # wrote none back.
        assert engine.trace_cursor == 16
        assert failed.logical_accesses == 24
        assert failed.path_reads == failed.path_writes + 5
        assert engine.plan is None
        # The over-full mirror went back as it was: nothing lost.
        assert len(engine.stash) > 30
        self.conserved(engine)
        assert engine.simulated_time_s == pytest.approx(
            closed_form_clock(engine), rel=1e-12
        )
        # Counters sit between an unbounded twin's just before and just
        # after the failing bin.
        unbounded = dataclasses.replace(
            config, oram=config.oram.with_overrides(stash_capacity=None)
        )
        before, after = LAORAMClient(unbounded), LAORAMClient(unbounded)
        before.access_many(trace[:16])
        after.access_many(trace[:24])
        for name in ("path_reads", "bytes_read", "posmap_path_reads"):
            low = getattr(before.statistics, name)
            high = getattr(after.statistics, name)
            assert low <= getattr(failed, name) <= high, name
        assert failed.path_writes == before.statistics.path_writes
        # Stash hits fetch nothing, so the over-full engine serves them.
        resident = engine.stash.block_ids[:8]
        hits = engine.statistics.stash_hits
        engine.access_many(resident)
        assert engine.statistics.stash_hits == hits + 8
        assert engine.trace_cursor == 24
        self.conserved(engine)
        assert engine.simulated_time_s == pytest.approx(
            closed_form_clock(engine), rel=1e-12
        )

    def per_access_overflow(self, client, recursive, drive, planned=False) -> list:
        """Overflow a 12-block stash one access at a time, then serve hits.

        Returns the engine's state after the raise and after the hits; a
        lookahead client's includes its cursor and whether it kept a plan.
        """
        config = placement_config(4, recursive, stash_capacity=12)
        oram = config.oram.with_overrides(posmap_cutoff_bytes=512)
        config = dataclasses.replace(config, oram=oram)
        trace = np.random.default_rng(4).integers(0, 256, size=400).tolist()
        lookahead = client in (ObjectLAORAMClient, LAORAMClient)
        engine = client(config if lookahead else oram)
        if planned:
            engine.preprocess(trace)

        def run(block_ids):
            if drive == "access":
                for block_id in block_ids:
                    engine.access(block_id)
            else:
                ObliviousMemory.run_trace(engine, block_ids)

        def checked() -> tuple:
            self.conserved(engine)
            assert engine.simulated_time_s == pytest.approx(
                closed_form_clock(engine), rel=1e-12
            )
            state = (
                engine.statistics,
                engine.stash.block_ids,
                engine.position_map.as_array().tolist(),
            )
            if lookahead:
                state += (engine.trace_cursor, engine.plan is None)
            return state

        with pytest.raises(StashOverflowError):
            run(trace)
        assert 1 < engine.statistics.logical_accesses < len(trace)
        assert len(engine.stash) > 12
        states = [checked()]
        # Stash hits fetch nothing, so the over-full engine serves them.
        hits = engine.statistics.stash_hits
        run(engine.stash.block_ids[:8])
        assert engine.statistics.stash_hits == hits + 8
        return states + [checked()]

    @pytest.mark.parametrize("drive", ["access", "generic loop"])
    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize(
        "client", [ObjectPathORAM, PathORAM, ObjectLAORAMClient, LAORAMClient]
    )
    def test_overflow_on_the_per_access_path_loses_no_block(
        self, client, recursive, drive
    ):
        # One access at a time (the reference's hooks, the array engine's
        # one-id bins): the path a fetch emptied is in the stash before the
        # overflow raises, and a reference engine ends field for field where
        # its array twin does.
        states = self.per_access_overflow(client, recursive, drive)
        twin = {ObjectPathORAM: PathORAM, ObjectLAORAMClient: LAORAMClient}.get(client)
        if twin is not None:
            assert self.per_access_overflow(twin, recursive, drive) == states

    @pytest.mark.parametrize("drive", ["access", "generic loop"])
    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_overflow_on_the_per_access_path_under_a_plan(self, recursive, drive):
        # The same with the trace's plan installed: single accesses take
        # plan leaves until the overflow, which drops the plan on both
        # clients, and the twins agree on the cursor as well.
        states = self.per_access_overflow(
            ObjectLAORAMClient, recursive, drive, planned=True
        )
        assert states[0][-1]
        assert states == self.per_access_overflow(
            LAORAMClient, recursive, drive, planned=True
        )

    @pytest.mark.parametrize("drive", ["access", "generic loop"])
    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_overflow_in_the_eviction_after_a_planned_access(self, recursive, drive):
        # Bucket size 1 and eviction above four residents: the overflow
        # comes from a dummy read after an access was served.  Both clients
        # count the access, move the cursor past it and drop the plan.
        config = placement_config(
            4, recursive, stash_capacity=12, bucket_size=1,
            eviction_threshold=4, eviction_target=0,
        )
        oram = config.oram.with_overrides(posmap_cutoff_bytes=512)
        config = dataclasses.replace(config, oram=oram)
        trace = np.random.default_rng(4).integers(0, 256, size=400).tolist()
        states = []
        for client in (ObjectLAORAMClient, LAORAMClient):
            engine = client(config)
            engine.preprocess(trace)
            with pytest.raises(StashOverflowError):
                if drive == "access":
                    for block_id in trace:
                        engine.access(block_id)
                else:
                    ObliviousMemory.run_trace(engine, trace)
            assert engine.statistics.dummy_reads > 0
            assert engine.trace_cursor == engine.statistics.logical_accesses
            assert engine.plan is None
            self.conserved(engine)
            states.append((
                engine.statistics,
                engine.stash.block_ids,
                engine.position_map.as_array().tolist(),
                engine.trace_cursor,
            ))
        assert states[0] == states[1]

    def test_an_overflow_mid_path_keeps_the_rest_of_the_path(self):
        # A one-block stash overflows on the second block of the first path
        # read; the blocks behind it on that path land too, on both backends.
        states = []
        for client in (ObjectPathORAM, PathORAM):
            engine = client(
                ORAMConfig(num_blocks=256, block_size_bytes=64, seed=13, stash_capacity=1)
            )
            with pytest.raises(StashOverflowError):
                engine.dummy_access()
            assert len(engine.stash) > 2
            self.conserved(engine)
            states.append((engine.statistics, engine.stash.block_ids))
        assert states[0] == states[1]

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_a_window_that_raises_leaves_no_lagging_plan(self, recursive):
        # Every block of the window comes back several times, so the bins
        # before the raise hand out leaves of occurrences the plan — whose
        # consumption state is only installed after the last bin — still
        # counts as unconsumed.  Planned blocks wait in the stash for the
        # bin they are mapped to: 28 rows overflow in the 35th bin.
        oram = ORAMConfig(
            num_blocks=1 << 12, block_size_bytes=64, seed=13,
            recursive_posmap=recursive, posmap_cutoff_bytes=4096,
            stash_capacity=28,
        )
        engine = LAORAMClient(LAORAMConfig(oram=oram, superblock_size=4))
        hot = np.random.default_rng(6).permutation(1 << 12)[:60]
        with pytest.raises(StashOverflowError):
            engine.run_trace(np.tile(hot, 5))
        assert engine.trace_cursor == 136
        assert engine.statistics.logical_accesses == 136 + 4
        assert engine.plan is None
        self.conserved(engine)
        # No leaf handed out before the raise is handed out again: each
        # served block moves off the path it was mapped to.  The waiting
        # blocks are stash hits, which the over-full engine still serves.
        waiting = [b for b in engine.stash.block_ids if b in set(hot.tolist())]
        assert len(waiting) == 28
        handed = {b: engine.position_map.peek(b) for b in waiting}
        engine.access_many(waiting)
        repeated = [b for b, leaf in handed.items() if engine.position_map.peek(b) == leaf]
        assert repeated == []
        assert engine.trace_cursor == 136 + 28
        self.conserved(engine)

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_a_raise_mid_request_drops_the_plan_on_both_clients(self, recursive):
        # Five bins are served, the sixth raises at its out-of-range id
        # before it is counted (a rejected id is no access); neither client
        # keeps a plan it has half used.
        trace = np.arange(40)
        bad = trace.copy()
        bad[21] = 256
        states = []
        for client in CLIENTS:
            engine = client(placement_config(4, recursive))
            engine.preprocess(trace)
            with pytest.raises(BlockNotFoundError):
                engine.access_many(bad)
            assert engine.plan is None
            assert engine.statistics.logical_accesses == 20
            states.append(dict(engine_state(engine), trace_cursor=engine.trace_cursor))
        assert states[0]["trace_cursor"] == 20
        assert_twins_agree(*states)

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    def test_a_plan_for_another_tree_fails_before_any_update(self, recursive):
        # Every remap of the first bin is a leaf past this tree's last one.
        # It is refused as it is decided, before the bin updates or reads
        # anything, on both clients.
        states = []
        for client in CLIENTS:
            engine = client(placement_config(4, recursive))
            num_leaves = engine.config.num_leaves
            engine.set_plan(
                LookaheadPlan(
                    [1, 2, 3, 4, 1, 2, 3, 4], [0, num_leaves], 4,
                    num_leaves=2 * num_leaves,
                )
            )
            labels = engine.position_map.as_array()
            with pytest.raises(ConfigurationError, match="planned leaf"):
                engine.access_many([1, 2, 3, 4])
            assert np.array_equal(engine.position_map.as_array(), labels)
            assert engine.statistics.path_reads == 0
            assert engine.statistics.posmap_path_reads == 0
            states.append(engine_state(engine))
        assert_twins_agree(*states)

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize(
        "client", [ObjectPathORAM, PathORAM, ObjectLAORAMClient, LAORAMClient]
    )
    def test_a_write_many_that_raises_keeps_the_served_writes(self, client, recursive):
        # 400 writes over 256 blocks outgrow a 12-block stash.  What was
        # served before the raise holds its last write — on the lookahead
        # clients the bins before the failing one, on PathORAM the accesses
        # before it — and nothing after it landed.
        config = placement_config(4, recursive, stash_capacity=12)
        lookahead = client in (ObjectLAORAMClient, LAORAMClient)
        engine = client(config if lookahead else config.oram)
        engine.load_payloads({b: ("initial", b) for b in range(256)})
        ids = np.random.default_rng(4).integers(0, 256, size=400).tolist()
        rows = [("written", index) for index in range(len(ids))]
        with pytest.raises(StashOverflowError):
            engine.write_many(ids, rows)
        served = (
            engine.trace_cursor
            if lookahead
            else engine.statistics.logical_accesses - 1
        )
        expected = {b: ("initial", b) for b in range(256)}
        expected.update(zip(ids[:served], rows[:served]))
        stashed = engine.stash.block_ids
        assert len(stashed) > 12
        # Stash hits fetch nothing, so the over-full engine serves them.
        got = engine.access_many(stashed)
        assert list(got) == [expected[b] for b in stashed]
        assert set(stashed) & set(ids[:served])

    @pytest.mark.parametrize("when", ["first window", "second call", "second window"])
    def test_a_rejected_window_leaves_no_trace(self, when):
        # The window is range-checked before it is planned, installed or
        # placed, on either client.  Trusted placement used to move seven
        # blocks of a fresh engine's rejected window and leave its plan
        # installed; a bad window after a served one left its plan
        # installed in place of the served one's.
        good = np.arange(20, 28)
        bad = np.array([5, 6, 7, 8, 9, 10, 11, 4096])
        window = bad.size if when == "second window" else None

        def fat_s4(fast):
            engine = build_engine("Fat/S4", build_oram_config(num_blocks=256, seed=13), fast=fast)
            engine.laoram_config = dataclasses.replace(
                engine.laoram_config, lookahead_accesses=window
            )
            return engine

        def state(engine) -> dict:
            plan = engine.plan
            return dict(
                engine_state(engine),
                trace_cursor=engine.trace_cursor,
                plan=None if plan is None else (
                    plan.start_index,
                    plan.addresses.tolist(),
                    plan.bin_leaves.tolist(),
                    dict(plan.consumed_up_to),
                ),
                stream=(engine.rng.bit_generator.state, getattr(engine, "_leaf_buf_pos", 0)),
            )

        states = []
        for fast in (False, True):
            engine, twin = fat_s4(fast), fat_s4(fast)
            if when != "first window":
                twin.run_trace(good)
            if when == "second call":
                engine.run_trace(good)
            with pytest.raises(BlockNotFoundError):
                engine.run_trace(np.concatenate([good, bad]) if window else bad)
            after = state(engine)
            assert after == state(twin)
            assert (after["plan"] is None) == (when == "first window")
            assert after["trace_cursor"] == (0 if when == "first window" else 8)
            after.pop("stream")
            states.append(after)
        assert_twins_agree(*states)
