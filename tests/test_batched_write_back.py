"""Adversarial invariants for the cross-path batched write-back planner.

``plan_batched_write_back`` plans the eviction for every path a batch
touched in one vectorized pass and commits with one scatter.  These tests
hammer it with randomized batches — overlapping paths, duplicate leaves,
batch sizes from 1 to 64, uniform and fat trees — and check, against the
same engine running the sequential per-path loop, that every round leaves

* the tree's slot array, occupancy vector and stash rows bit-identical,
* no block lost or duplicated (conservation over tree + stash),
* every bucket within capacity with occupied slots as a dense prefix, and
* every evicted block on a bucket its assigned path passes through.

The driver calls the engine's storage hooks (``_read_paths_into_stash`` /
``_write_back_many``) directly so batches are adversarial rather than
whatever the access protocol happens to produce.  The sequential side is
the same engine class with the base class's per-path hooks bound onto the
instance (:func:`bind_sequential_hooks`), so the multi-path gather is under
the same differential as the planner.
"""

import types

import numpy as np
import pytest

from repro.experiments.configs import build_engine
from repro.oram.array_path_oram import ArrayPathORAM
from repro.oram.config import ORAMConfig
from repro.oram.engine import ArrayStorageEngine, TreeORAMEngine

NUM_BLOCKS = 512
NUM_ROUNDS = 30


def make_engine(seed: int, fat_tree: bool, batched: bool) -> ArrayPathORAM:
    config = ORAMConfig(
        num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=seed, fat_tree=fat_tree
    )
    engine = ArrayPathORAM(config)
    if not batched:
        bind_sequential_hooks(engine)
    return engine


def bind_sequential_hooks(engine: ArrayStorageEngine) -> None:
    """Make ``engine`` the differential's reference side.

    Binds the base class's one-path-at-a-time loops over this instance's
    multi-path gather (``read_paths_ids``) and cross-path planner
    (``plan_batched_write_back``): same storage hooks underneath, no
    batching above them.
    """
    engine._read_paths_into_stash = types.MethodType(
        TreeORAMEngine._read_paths_into_stash, engine
    )
    engine._write_back_many = types.MethodType(
        TreeORAMEngine._write_back_many, engine
    )


def assert_invariants(engine: ArrayPathORAM) -> None:
    """Structural soundness of tree + stash after any batch."""
    tree = engine.tree
    stash = engine.stash
    pm_leaves = engine.position_map.as_array()
    depth = tree.depth
    seen: list[np.ndarray] = []
    for level in range(depth + 1):
        capacity = tree.capacity_at_level(level)
        slots = tree._level_slots(level)
        occ = tree._level_occ(level)
        # Within capacity, and occupied slots form a dense real-id prefix.
        assert occ.max(initial=0) <= capacity
        counts = (slots >= 0).sum(axis=1)
        assert np.array_equal(counts, occ)
        order = np.argsort(slots < 0, axis=1, kind="stable")
        assert np.array_equal(np.take_along_axis(slots, order, axis=1), slots)
        # Path-prefix rule: a stored block's assigned path must pass through
        # the node holding it.
        nodes, slot_cols = np.nonzero(slots >= 0)
        ids = slots[nodes, slot_cols]
        assert np.array_equal(pm_leaves[ids] >> (depth - level), nodes)
        seen.append(ids)
    tail = stash.tail
    stash_ids = stash.id_rows[:tail]
    real = stash_ids >= 0
    # The stash's leaf mirror agrees with the position map.
    assert np.array_equal(
        stash.leaf_rows[:tail][real], pm_leaves[stash_ids[real]]
    )
    seen.append(stash_ids[real])
    # Conservation: every block exactly once across tree + stash.
    all_ids = np.sort(np.concatenate(seen))
    assert np.array_equal(all_ids, np.arange(NUM_BLOCKS))


def live_rows(engine: ArrayPathORAM) -> tuple[np.ndarray, np.ndarray]:
    """The stash's (ids, leaves) in insertion order, holes dropped."""
    tail = engine.stash.tail
    ids = engine.stash.id_rows[:tail]
    live = ids >= 0
    return ids[live], engine.stash.leaf_rows[:tail][live]


def assert_engines_identical(batched: ArrayPathORAM, sequential: ArrayPathORAM):
    assert np.array_equal(batched.tree._slots, sequential.tree._slots)
    assert np.array_equal(batched.tree._occ, sequential.tree._occ)
    # Row *positions* may differ (one multi-path append compacts at other
    # moments than k single-path appends); what every planner reads is the
    # order of the live rows.
    for got, want in zip(live_rows(batched), live_rows(sequential)):
        assert np.array_equal(got, want)
    for engine in (batched, sequential):
        ids, _ = live_rows(engine)
        rows = engine.stash.row_of[ids]
        assert np.array_equal(engine.stash.id_rows[rows], ids)
        assert np.count_nonzero(engine.stash.row_of >= 0) == ids.size


def drive_round(engine: ArrayPathORAM, rng: np.random.Generator) -> None:
    """One adversarial batch: fetch, churn leaves, write back."""
    num_leaves = engine.config.num_leaves
    batch = rng.integers(1, 65)
    draws = rng.integers(0, num_leaves, size=batch).tolist()
    # First-encounter dedup, like the access protocols; duplicates in the
    # raw draw exercise the planner's tolerance for repeated leaves too.
    leaves = list(dict.fromkeys(draws))
    engine._read_paths_into_stash(leaves, dummy=False)
    # Churn: remap a random slice of the stash-resident blocks so write-back
    # eligibility differs from where the blocks were fetched.
    resident = [b for b in engine.stash.block_ids]
    if resident:
        take = int(rng.integers(0, len(resident) + 1))
        new_leaves = rng.integers(0, num_leaves, size=take)
        for block_id, leaf in zip(resident[:take], new_leaves.tolist()):
            engine._update_leaf(int(block_id), int(leaf))
    engine._write_back_many(leaves)


class TestBatchedPlannerDifferential:
    """Batched plan == sequential per-path loop, bit for bit, every round."""

    @pytest.mark.parametrize("fat_tree", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_batches_stay_identical(self, seed, fat_tree):
        batched = make_engine(seed, fat_tree, batched=True)
        sequential = make_engine(seed, fat_tree, batched=False)
        assert_engines_identical(batched, sequential)
        for round_index in range(NUM_ROUNDS):
            # Same driver stream for both engines.
            drive_round(batched, np.random.default_rng((seed, round_index)))
            drive_round(sequential, np.random.default_rng((seed, round_index)))
            assert_engines_identical(batched, sequential)
            assert_invariants(batched)

    def test_duplicate_leaves_in_one_batch(self):
        engine = make_engine(3, False, batched=True)
        twin = make_engine(3, False, batched=False)
        num_leaves = engine.config.num_leaves
        leaf_a, leaf_b = 0, num_leaves - 1
        for target in (engine, twin):
            target._read_paths_into_stash([leaf_a, leaf_b], dummy=False)
            target._write_back_many([leaf_a, leaf_b, leaf_a, leaf_b])
        assert_engines_identical(engine, twin)
        assert_invariants(engine)

    def test_single_leaf_batch_uses_sequential_path(self):
        # A 1-element batch must behave exactly like a plain write-back.
        engine = make_engine(5, False, batched=True)
        twin = make_engine(5, False, batched=False)
        for target in (engine, twin):
            target._read_paths_into_stash([4], dummy=False)
            target._write_back_many([4])
        assert_engines_identical(engine, twin)
        assert_invariants(engine)

    def test_empty_stash_write_back(self):
        # Planning over an empty stash must commit nothing and not crash.
        engine = make_engine(9, False, batched=True)
        engine.stash.clear()
        before_slots = engine.tree._slots.copy()
        occupied = np.sort(before_slots[before_slots >= 0])
        engine._write_back_many([0, 1, 2, 3])
        assert np.array_equal(
            np.sort(engine.tree._slots[engine.tree._slots >= 0]), occupied
        )

    def test_overlapping_paths_share_buckets_once(self):
        # Adjacent leaves share all buckets above their split level; the
        # planner must fill the shared buckets once, not once per path.
        engine = make_engine(11, False, batched=True)
        num_leaves = engine.config.num_leaves
        leaves = [0, 1, 2, 3, num_leaves - 1]
        engine._read_paths_into_stash(leaves, dummy=False)
        engine._write_back_many(leaves)
        assert_invariants(engine)


class TestBatchedAccessInvariants:
    """End-to-end: plan-free superblock bins preserve the invariants."""

    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    def test_access_many_rounds(self, batch_size):
        config = ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=2)
        engine = build_engine(f"Normal/S{batch_size}", config, fast=True)
        rng = np.random.default_rng(8)
        for _ in range(6):
            trace = rng.integers(0, NUM_BLOCKS, size=200).tolist()
            engine.access_many(trace)
            assert_invariants(engine)

    def test_write_many_payloads_survive_batching(self):
        config = ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=4)
        engine = build_engine("Normal/S32", config, fast=True)
        ids = list(range(100))
        engine.write_many(ids, [f"v{i}" for i in ids])
        # Duplicates in one chunk: last write wins, like a sequential stream.
        engine.write_many([7, 7, 7], ["a", "b", "c"])
        got = engine.access_many(ids)
        expected = [f"v{i}" for i in ids]
        expected[7] = "c"
        assert got == expected
        assert_invariants(engine)
