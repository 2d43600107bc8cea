"""Recursive ORAM-backed position map: equivalence, charging, security.

Four concerns, mirroring the contract in
``docs/recursive_position_map.md``:

* **Dense/recursive bit-identity** — for every engine family and seed,
  swapping the dense map for the recursion must leave every main-tree
  decision untouched: identical final leaf assignments and identical
  core traffic counters, with only the ``posmap_*`` category differing.
* **Charging model** — one charged walk per position-map update: every
  ``update`` walks, a stash-hit block's remap as much as a fetched
  block's (also after a stash overflow), and the ``peek``/``load``
  trusted channel never charges.
* **Honest accounting** — ``client_memory_bytes`` counts the recursion
  top map and per-level stash residue, not the dense array.
* **Obliviousness** — the observable leaf stream of every recursion
  tree stays uniform under a skewed logical access stream (the same
  chi-square adversary as ``tests/test_security_uniformity_fast.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    IntegrityError,
    StashOverflowError,
)
from repro.experiments.configs import build_oram_config
from repro.experiments.matrix import ReplayMatrix
from repro.experiments.report import render_recursion
from repro.experiments.scale import TINY
from repro.memory.accounting import TrafficCounter, merge_snapshots
from repro.oram.path_oram import PathORAM
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.position_map import DRAW_BLOCK, LABEL_BYTES, PositionMap
from repro.utils.stats import chi_square_uniformity
from oracle import ObjectLAORAMClient, ObjectPathORAM, build_engine, fetch_path
from conftest import closed_form_clock, node_ids
from test_trace_contract import assert_twins_agree

NUM_BLOCKS = 256
NUM_ACCESSES = 600

FAMILY_LABELS = ("PathORAM", "Normal/S2", "Normal/S4", "Fat/S8")

#: Main-tree snapshot fields that must not change under recursion.
CORE_FIELDS = (
    "logical_accesses",
    "path_reads",
    "path_writes",
    "dummy_reads",
    "buckets_read",
    "buckets_written",
    "bytes_read",
    "bytes_written",
    "stash_peak",
    "background_evictions",
)


def run_engine(
    label: str, seed: int, fast: bool, recursive: bool, num_accesses=NUM_ACCESSES
):
    # chi=4 over 256 blocks with a 128-byte cutoff builds two recursion
    # levels (64 -> 16 blocks), exercising the full multi-level walk.
    config = build_oram_config(
        num_blocks=NUM_BLOCKS,
        block_size_bytes=32,
        seed=seed,
        recursive_posmap=recursive,
        posmap_positions_per_block=4,
        posmap_cutoff_bytes=128,
    )
    engine = build_engine(label, config, fast=fast)
    trace = ZipfTraceGenerator(NUM_BLOCKS, exponent=1.2, seed=seed).generate(
        num_accesses
    ).addresses
    if hasattr(engine, "run_trace"):
        engine.run_trace(trace)
    else:
        for block_id in trace.tolist():
            engine.access(block_id)
    return engine


def make_map(
    num_blocks=4096,
    num_leaves=2048,
    chi=16,
    cutoff=512,
    seed=5,
    counter=None,
    record_streams=False,
):
    return PositionMap(
        num_blocks,
        num_leaves,
        rng=np.random.default_rng(seed),
        positions_per_block=chi,
        cutoff_bytes=cutoff,
        counter=counter,
        seed=seed,
        record_streams=record_streams,
    )


class TestDenseRecursiveBitIdentity:
    """Recursion changes where the map lives, never what the engine does."""

    @pytest.mark.parametrize("label", FAMILY_LABELS)
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("fast", [False, True])
    def test_main_tree_identical(self, label, seed, fast):
        dense = run_engine(label, seed, fast, recursive=False)
        recursive = run_engine(label, seed, fast, recursive=True)
        assert np.array_equal(
            dense.position_map.as_array(), recursive.position_map.as_array()
        )
        dense_snap = dense.statistics
        rec_snap = recursive.statistics
        for name in CORE_FIELDS:
            assert getattr(dense_snap, name) == getattr(rec_snap, name), name
        # The posmap category is where the two runs legitimately differ.
        assert dense_snap.posmap_path_reads == 0
        assert dense_snap.posmap_total_bytes == 0
        assert rec_snap.posmap_path_reads > 0
        assert rec_snap.posmap_bytes_read > 0

    @pytest.mark.parametrize("label", FAMILY_LABELS)
    def test_object_and_array_twins_agree_under_recursion(self, label):
        reference = run_engine(label, 3, fast=False, recursive=True)
        fast = run_engine(label, 3, fast=True, recursive=True)
        assert reference.statistics == fast.statistics
        assert np.array_equal(
            reference.position_map.as_array(), fast.position_map.as_array()
        )


class TestChargingModel:
    """Exactly one charged walk per position-map update."""

    def test_an_update_returns_the_old_label_and_installs_the_new(self):
        counter = TrafficCounter()
        pmap = make_map(counter=counter)
        old = pmap.peek(17)
        assert pmap.update(17, 5) == old
        assert pmap.peek(17) == 5
        assert counter.posmap_path_reads > 0
        # The next update of the same id is a walk of its own: a path read
        # at every level whose block is not a stash resident.
        chi = pmap.positions_per_block
        misses = sum(
            17 // chi**k not in level.stash
            for k, level in enumerate(pmap._levels, start=1)
        )
        reads = counter.posmap_path_reads
        assert pmap.update(17, 6) == 5
        assert counter.posmap_path_reads == reads + misses

    def test_an_update_to_the_label_it_has_is_a_walk_too(self):
        # What a walk reads does not depend on the new label: one that
        # leaves the block where it is walks as any other.
        counter = TrafficCounter()
        pmap = make_map(counter=counter)
        chi = pmap.positions_per_block
        misses = sum(
            17 // chi**k not in level.stash
            for k, level in enumerate(pmap._levels, start=1)
        )
        assert misses > 0
        label = pmap.peek(17)
        assert pmap.update(17, label) == label == pmap.peek(17)
        assert counter.posmap_path_reads == counter.posmap_path_writes == misses

    def test_every_update_is_charged(self):
        counter = TrafficCounter()
        pmap = make_map(counter=counter)
        rng = np.random.default_rng(0)
        for block_id in rng.choice(len(pmap), size=200, replace=False).tolist():
            pmap.update(int(block_id), 3)
        assert counter.posmap_path_reads > 0
        assert counter.posmap_path_writes > 0
        assert counter.posmap_bytes_read > 0

    def test_peek_and_load_never_charge(self):
        counter = TrafficCounter()
        pmap = make_map(counter=counter)
        pmap.peek(3)
        pmap.peek_many([0, 1, 2])
        pmap.load(3, 9)
        pmap.load_many([4, 5], [6, 7])
        snapshot = counter.snapshot()
        assert snapshot.posmap_path_reads == 0
        assert snapshot.posmap_path_writes == 0
        assert snapshot.posmap_total_bytes == 0
        assert pmap.peek(3) == 9
        assert pmap.peek_many([4, 5]).tolist() == [6, 7]

    def test_degenerate_map_below_cutoff_is_dense(self):
        counter = TrafficCounter()
        pmap = make_map(num_blocks=64, num_leaves=32, cutoff=1 << 16,
                        counter=counter)
        assert pmap._levels == [] == PositionMap.level_sizes(64, 16, 1 << 16)
        pmap.update(1, pmap.peek(1))
        assert counter.snapshot().posmap_total_bytes == 0

    def test_validation_exception_types(self):
        pmap = make_map(num_blocks=64, num_leaves=32, cutoff=64)
        with pytest.raises(BlockNotFoundError):
            pmap.update(64, 0)
        with pytest.raises(BlockNotFoundError):
            pmap.peek_many([0, 64])
        with pytest.raises(ConfigurationError):
            pmap.update(0, 32)
        with pytest.raises(ConfigurationError):
            pmap.load_many([0, 1], [0.5, 1.5])
        with pytest.raises(ConfigurationError):
            pmap.peek_many(np.array([0.0, 1.0]))
        with pytest.raises(BlockNotFoundError):
            pmap.load(-1, 0)
        with pytest.raises(ConfigurationError):
            pmap.load_many([0], [99])


class TestOneWalkPerRemapAfterAnOverflow:
    """A stash overflow leaves no remap uncharged, on either backend.

    2^10 blocks over one recursion level (a 64-byte top map) and a
    one-block stash: the first path read that brings in a second block
    raises.  The blocks it stashed were updated, or never touched, so each
    one's next stash-hit remap is one update — one walk, one recursion path
    read here — and their labels are the map's.
    """

    CONFIG = ORAMConfig(
        num_blocks=1 << 10,
        block_size_bytes=64,
        seed=5,
        recursive_posmap=True,
        posmap_cutoff_bytes=64,
        stash_capacity=1,
    )

    @staticmethod
    def assert_stash_agrees(engine) -> None:
        posmap = engine.position_map
        for block_id in engine.stash.block_ids:
            assert engine.stash.leaf_of(block_id) == posmap.peek(block_id)

    @pytest.mark.parametrize(
        "client, serve",
        [
            pytest.param("PathORAM", "access", id="PathORAM-access"),
            # The array twin's run_trace is the bin kernel.
            pytest.param("PathORAM", "run_trace", id="PathORAM-run_trace"),
            pytest.param("LAORAM", "access_many", id="LAORAM-bin"),
        ],
    )
    def test_the_next_stash_hit_remap_costs_one_walk(self, client, serve):
        assert PositionMap.level_sizes(1 << 10, 64, 64) == [16]
        if client == "PathORAM":
            twins = (ObjectPathORAM(self.CONFIG), PathORAM(self.CONFIG))
            failing = [652]
        else:
            config = LAORAMConfig(oram=self.CONFIG, superblock_size=4)
            twins = (ObjectLAORAMClient(config), LAORAMClient(config))
            failing = list(range(600, 608))

        def run(engine, block_ids):
            if serve == "access":
                for block_id in block_ids:
                    engine.access(block_id)
            else:
                getattr(engine, serve)(block_ids)

        for engine in twins:
            with pytest.raises(StashOverflowError):
                run(engine, failing)
            self.assert_stash_agrees(engine)
        assert_twins_agree(*twins)

        stashed = [b for b in failing if b in twins[0].stash.block_ids]
        assert stashed == ([652] if client == "PathORAM" else [600, 601])
        for block_id in stashed:
            for engine in twins:
                before = engine.statistics
                run(engine, [block_id])
                after = engine.statistics
                assert after.stash_hits == before.stash_hits + 1
                assert after.posmap_path_reads == before.posmap_path_reads + 1
                self.assert_stash_agrees(engine)
            assert_twins_agree(*twins)


class TestHonestAccounting:
    """Client memory counts what the client actually holds."""

    def test_recursive_footprint_beats_dense(self):
        dense = PositionMap(4096, 2048, np.random.default_rng(5))
        recursive = make_map()
        assert len(recursive._levels) >= 2
        assert recursive.client_memory_bytes() < dense.client_memory_bytes() / 4

    def test_footprint_components(self):
        pmap = make_map()
        chi = pmap.positions_per_block

        def expected() -> int:
            residents = sum(len(level.stash) for level in pmap._levels)
            return pmap._top.nbytes + residents * (chi * LABEL_BYTES + 16)

        assert pmap.client_memory_bytes() == expected()
        # An update leaves no open walk behind: the top map and the level
        # stashes are all the client holds between calls.
        pmap.update(0, 1)
        assert pmap.client_memory_bytes() == expected()

    def test_every_level_tree_is_sized_at_the_label_width(self):
        pmap = make_map()
        levels = pmap._levels
        assert levels[0].num_blocks == -(-4096 // 16)
        assert all(level.tree.path_cost[1] > 0 for level in levels)
        assert pmap.server_memory_bytes() > 0
        # Bytes at the label width: a block is chi labels plus its metadata,
        # a path is (depth + 1) buckets of four of them.
        for level in levels:
            assert level.labels.itemsize == LABEL_BYTES
            assert level.tree.stored_block_bytes == 16 * LABEL_BYTES + 16
            assert level.tree.path_cost[1] == (
                (level.depth + 1) * 4 * level.tree.stored_block_bytes
            )
        assert pmap.top_map_bytes == levels[-1].num_blocks * LABEL_BYTES

    @pytest.mark.parametrize(
        "num_blocks,expected",
        [
            (1 << 14, []),  # 64 KiB of labels: the dense map fits
            (1 << 20, [16384]),
            (1 << 23, [131072, 2048]),
            (1 << 24, [262144, 4096]),
        ],
    )
    def test_level_sizes_at_the_default_budget(self, num_blocks, expected):
        # A pure function of the three numbers: no tree is allocated.
        assert PositionMap.level_sizes(num_blocks, 64, 1 << 16) == expected
        assert PositionMap.level_sizes(num_blocks, 64, None) == []

    def test_constructor_builds_the_sizes_it_reports(self):
        pmap = make_map()
        assert [level.num_blocks for level in pmap._levels] == (
            PositionMap.level_sizes(4096, 16, 512)
        ) == [256, 16]


class TestPosmapCounters:
    """The posmap_* category accumulates and merges like the core fields."""

    def test_record_and_snapshot(self):
        counter = TrafficCounter()
        counter.record_posmap_path_read(5, 100)
        counter.record_posmap_path_read(5, 100)
        counter.record_posmap_path_write(4, 80)
        counter.record_logical_access(4)
        snapshot = counter.snapshot()
        assert snapshot.posmap_path_reads == 2
        assert snapshot.posmap_path_writes == 1
        assert snapshot.posmap_bytes_read == 200
        assert snapshot.posmap_bytes_written == 80
        assert snapshot.posmap_buckets_read == 10
        assert snapshot.posmap_buckets_written == 4
        assert snapshot.posmap_total_bytes == 280
        assert snapshot.posmap_path_reads / snapshot.logical_accesses == pytest.approx(0.5)

    def test_reset_clears_posmap_fields(self):
        counter = TrafficCounter()
        counter.record_posmap_path_read(5, 100)
        counter.reset()
        assert counter.snapshot().posmap_total_bytes == 0
        assert counter.snapshot().posmap_buckets_read == 0

    def test_merge_sums_posmap_fields(self):
        first = TrafficCounter()
        first.record_posmap_path_read(2, 10)
        second = TrafficCounter()
        second.record_posmap_path_write(3, 20)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged.posmap_path_reads == 1
        assert merged.posmap_path_writes == 1
        assert merged.posmap_total_bytes == 30
        assert merged.posmap_buckets_read + merged.posmap_buckets_written == 5


class TestRecursionTreeUniformity:
    """Observable recursion-path streams stay uniform under skewed ids."""

    COARSE_BINS = 64
    ALPHA = 0.001

    #: Enough walks that every level refills its block of fresh labels
    #: several times: the streams must stay uniform across those seams.
    WALKS = 3000

    def test_per_level_streams_uniform(self):
        assert self.WALKS > 5 * DRAW_BLOCK
        pmap = make_map(seed=9, record_streams=True)
        addresses = ZipfTraceGenerator(
            len(pmap), exponent=1.2, seed=2
        ).generate(self.WALKS).addresses
        rng = np.random.default_rng(4)
        for block_id in addresses.tolist():
            pmap.update(block_id, int(rng.integers(0, pmap.num_leaves)))
        for level in pmap._levels:
            stream = np.asarray(level.read_stream, dtype=np.int64)
            assert stream.size >= 500
            bins = min(self.COARSE_BINS, level.num_leaves)
            coarse = (stream * bins) // level.num_leaves
            result = chi_square_uniformity(coarse, bins)
            assert not result.rejects_uniformity(alpha=self.ALPHA)


class TestDrawBlockSeam:
    """Levels take fresh labels a block at a time; a refill changes nothing."""

    @pytest.mark.parametrize("label", ["PathORAM", "Normal/S4", "Fat/S8"])
    def test_twins_stay_state_equal_across_a_refill(self, label):
        # One class serves both backends and owns its generators, so the
        # reference and array engines walk label for label, refills included.
        reference, fast = (
            run_engine(label, 5, fast, recursive=True, num_accesses=1100)
            for fast in (False, True)
        )
        # More path reads than levels x DRAW_BLOCK: every level refilled.
        levels = len(reference.position_map._levels)
        assert reference.statistics.posmap_path_reads > levels * DRAW_BLOCK
        assert_twins_agree(reference, fast)
        for ref_level, fast_level in zip(
            reference.position_map._levels, fast.position_map._levels
        ):
            assert np.array_equal(ref_level.labels, fast_level.labels)
            assert [(b.block_id, b.leaf) for b in ref_level.stash] == list(
                fast_level.stash.items()
            )


class TestAmortizationExperiment:
    """The replay matrix's recursion table, the projection behind ``cli recursion``."""

    def test_reduced_scale_table(self):
        matrix = ReplayMatrix(TINY)
        rows = matrix.recursion()
        assert set(rows) == {"PathORAM", "Normal/S4"}
        assert all(row.bit_identical for row in rows.values())
        assert all(row.levels >= 1 for row in rows.values())
        # PathORAM pays one walk per access; LAORAM's superblock bins
        # amortize repeated accesses onto one walk.
        assert rows["PathORAM"].walks_per_access == pytest.approx(1.0)
        assert rows["Normal/S4"].walks_per_access < rows["PathORAM"].walks_per_access
        # The geometry columns are the map the recursive cell builds.
        for label, (_, cell) in matrix._recursion_cells(0).items():
            pmap = build_engine(label, cell.oram, fast=True).position_map
            (level,) = pmap._levels
            assert (rows[label].levels, rows[label].top_map_bytes) == (
                len(pmap._levels), pmap.top_map_bytes
            )
            assert (rows[label].label_bytes, rows[label].block_bytes) == (
                level.labels.itemsize, level.tree.stored_block_bytes
            )
        table = render_recursion(matrix)
        assert "walks/access" in table and "Normal/S4" in table


class TestFailurePathsUnderRecursion:
    """A raise mid-trace leaves a recursive fast engine consistent.

    The kernel keeps its counts in its state buffer and the recursion walks
    theirs in the map's walk state, both folded into the engine's
    ``counter`` after the request, so every exit — the kernel's own raises
    and a raise from inside a walk — must flush without losing or repeating
    a count.
    """

    KERNEL_LABELS = ("PathORAM",)

    @staticmethod
    def build(label: str, stash_capacity=None, fast=True):
        # chi=4 with a 512-byte cutoff: one recursion level of 64 blocks.
        config = build_oram_config(
            num_blocks=NUM_BLOCKS,
            block_size_bytes=32,
            seed=3,
            recursive_posmap=True,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=512,
        )
        config = dataclasses.replace(config, stash_capacity=stash_capacity)
        return build_engine(label, config, fast=fast)

    @staticmethod
    def trace() -> np.ndarray:
        return ZipfTraceGenerator(NUM_BLOCKS, exponent=1.2, seed=3).generate(
            NUM_ACCESSES
        ).addresses

    @staticmethod
    def assert_consistent(engine) -> None:
        """Every block once, each where the position map says it may be."""
        leaves = engine.position_map.as_array()
        depth = engine.config.depth
        seen: list[int] = []
        for level, node, ids in node_ids(engine.tree):
            assert np.all(leaves[ids] >> (depth - level) == node)
            seen.extend(ids.tolist())
        for block_id in engine.stash.block_ids:
            assert engine.stash.leaf_of(block_id) == leaves[block_id]
            seen.append(block_id)
        assert sorted(seen) == list(range(NUM_BLOCKS))

    @pytest.mark.parametrize("label", KERNEL_LABELS)
    def test_out_of_range_id_mid_trace(self, label):
        trace = self.trace()
        broken = trace.copy()
        broken[200] = NUM_BLOCKS
        fast, oracle = self.build(label), self.build(label, fast=False)
        with pytest.raises(BlockNotFoundError):
            fast.run_trace(broken)
        with pytest.raises(BlockNotFoundError):
            ObliviousMemory.run_trace(oracle, broken)
        assert fast.statistics.logical_accesses == 200
        assert_twins_agree(oracle, fast)
        self.assert_consistent(fast)
        # The engine takes the next trace as if nothing had happened.
        assert fast.run_trace(trace) == ObliviousMemory.run_trace(oracle, trace)
        assert_twins_agree(oracle, fast)

    @pytest.mark.parametrize("label", KERNEL_LABELS)
    def test_raise_from_inside_a_walk_keeps_its_charges(self, label):
        # Point the top map's entry for one recursion block at the other
        # half of its tree: the walk reads (and charges) that path, misses
        # the block and raises from inside the driver's charged call.
        fast, oracle = self.build(label), self.build(label, fast=False)
        for engine in (fast, oracle):
            posmap = engine.position_map
            level = posmap._levels[0]
            below_root = level.tree.slot_array[level.tree.bucket_capacities[0] :]
            victim = int(below_root[below_root >= 0][0])
            posmap._top[victim] ^= level.num_leaves >> 1
        chi = fast.position_map.positions_per_block
        prefix = [b for b in self.trace().tolist() if b // chi != victim][:40]
        trace = prefix + [victim * chi]
        with pytest.raises(IntegrityError):
            fast.run_trace(trace)
        with pytest.raises(IntegrityError):
            ObliviousMemory.run_trace(oracle, trace)
        assert fast.statistics.logical_accesses == len(trace)
        # Field for field, the clock as a float: the failed walk's path read
        # is charged once on both sides.
        assert_twins_agree(oracle, fast)
        self.assert_consistent(fast)

    def test_stash_hit_write_whose_remap_raises_keeps_its_payload(self):
        # Path ORAM serves a stashed block before it remaps it, so a write
        # to a stash hit lands even when the remap's walk raises: here the
        # top-map entry of block 7's recursion block points at the other
        # half of its tree, so the walk misses that block.
        config = build_oram_config(
            num_blocks=1 << 10, seed=5, recursive_posmap=True,
            posmap_cutoff_bytes=64,
        )
        fast, oracle = (build_engine("PathORAM", config, fast=f) for f in (True, False))
        for engine in (fast, oracle):
            posmap = engine.position_map
            engine.load_payloads({7: "old"})
            fetch_path(engine, posmap.peek(7))
            span = posmap.positions_per_block ** len(posmap._levels)
            posmap._top[7 // span] ^= posmap._levels[-1].num_leaves >> 1
            with pytest.raises(IntegrityError):
                engine.access(7, AccessOp.WRITE, "new")
        assert oracle.stash.get(7).payload == "new"
        assert fast._payloads.get(7) == "new"
        assert_twins_agree(oracle, fast)

    #: The kernel over a whole trace, and the generic per-access loop: one
    #: one-id kernel call per access on the array backend.
    DRIVERS = {
        "fused": lambda engine, trace: engine.run_trace(trace),
        "generic loop": lambda engine, trace: ObliviousMemory.run_trace(engine, trace),
    }

    @pytest.mark.parametrize(
        "label, driver",
        [
            pytest.param("PathORAM", "fused", id="PathORAM-fused"),
            pytest.param("PathORAM", "generic loop", id="PathORAM-generic loop"),
        ],
    )
    def test_stash_overflow_mid_trace(self, label, driver):
        run = self.DRIVERS[driver]
        capacity = 10
        trace = self.trace()
        engine = self.build(label, stash_capacity=capacity)
        with pytest.raises(StashOverflowError):
            run(engine, trace)
        failed = engine.statistics
        done = failed.logical_accesses
        assert 1 < done < len(trace)
        # The over-full stash keeps what was fetched into it: nothing lost.
        assert len(engine.stash) > capacity
        assert engine.total_real_blocks() == NUM_BLOCKS
        self.assert_consistent(engine)
        # Counters and clock sit between an unbounded twin's values just
        # before and just after the failing access.
        before, after = self.build(label), self.build(label)
        run(before, trace[: done - 1])
        run(after, trace[:done])
        for name in (
            "path_reads", "path_writes", "dummy_reads", "bytes_read",
            "bytes_written", "posmap_path_reads", "posmap_path_writes",
            "posmap_bytes_read", "posmap_bytes_written",
        ):
            low = getattr(before.statistics, name)
            high = getattr(after.statistics, name)
            assert low <= getattr(failed, name) <= high, name
        assert before.simulated_time_s < engine.simulated_time_s
        assert engine.simulated_time_s <= after.simulated_time_s
        # Stash hits fetch nothing, so the over-full engine takes them.
        resident = list(engine.stash.block_ids)
        run(engine, resident)
        assert engine.statistics.logical_accesses == done + len(resident)
        self.assert_consistent(engine)

    def test_pathoram_clock_matches_its_counters_and_resumes(self):
        engine = self.build("PathORAM", stash_capacity=10)
        with pytest.raises(StashOverflowError):
            engine.run_trace(self.trace())
        assert engine.simulated_time_s == pytest.approx(
            closed_form_clock(engine), rel=1e-12
        )
        # Stash hits fetch nothing, so the over-full engine serves them —
        # each remap a standalone charged walk.
        resident = list(engine.stash.block_ids)
        walks = engine.statistics.posmap_path_reads
        engine.run_trace(resident)
        assert engine.statistics.stash_hits >= len(resident)
        assert engine.statistics.posmap_path_reads > walks
        assert engine.simulated_time_s == pytest.approx(
            closed_form_clock(engine), rel=1e-12
        )
        self.assert_consistent(engine)
