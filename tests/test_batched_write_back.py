"""Adversarial differential for bins that read several paths.

A LAORAM bin fetches every distinct path its missing blocks sit on and then
writes those paths back one after another, so a later write-back finds the
buckets it shares with an earlier one already refilled.  On the fast client
that is the request kernel's write-back (``serve`` of ``oram/_write_back.c``,
on the stash's C table); the reference is
``ObjectLAORAMClient.access_superblock`` (``tests/oracle/laoram.py``), one
occupancy-aware ``plan_greedy_write_back`` per path over ``Block``
objects.  These tests
hammer the pair with bins the access protocols seldom produce — batch sizes
from 1 to 64, duplicate leaves in one bin, paths that share only the root,
paths that share everything but the leaf bucket, shared buckets already
full — and check after every bin that

* counters, clock, position map, stash order and tree layout are identical
  on both clients,
* no block is lost or duplicated (conservation over tree + stash),
* every bucket is within capacity with occupied slots as a dense prefix, and
* every stored block sits on a bucket its assigned path passes through.

Each bin (any length, any id multiset) goes straight to the kernel on the
fast client and through ``access_superblock`` on the reference; adversarial
layouts come from trusted placement, which puts chosen blocks on chosen paths
on both backends alike.

A held training step (``hold_many`` then ``commit``) writes all its read
paths back at once, filling the subtree they span level by level
(the kernel's commit bin; the reference is ``plan_subtree_write_back``).  The
same driver holds it to the same checks, and to the fill's own guarantee:
a block the commit leaves in the stash finds every bucket of the subtree
on its path full.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.superblock import LookaheadPlan
from repro.oram.config import ORAMConfig
from repro.oram.tree import ArrayTreeStorage
from repro.oram.write_back import serve

from test_trace_contract import assert_twins_agree
from conftest import stash_of, tree_request

from oracle import (
    Block,
    ObjectLAORAMClient,
    Stash,
    TreeStorage,
    build_engine,
    plan_subtree_write_back,
    update_leaf,
)

NUM_BLOCKS = 512
NUM_ROUNDS = 30


def make_twins(seed: int, fat_tree: bool = False):
    """The reference client and the fast one, same seed, no plan."""
    config = LAORAMConfig(
        oram=ORAMConfig(
            num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=seed, fat_tree=fat_tree
        ),
        superblock_size=8,
    )
    return ObjectLAORAMClient(config), LAORAMClient(config)


def serve_bin(engine, block_ids) -> None:
    """One bin of ``block_ids`` at the trace cursor."""
    ids = [int(b) for b in block_ids]
    if isinstance(engine, LAORAMClient):
        # A bin size that puts the next boundary right after the request.
        engine._run_bins(np.array(ids), size=engine.trace_cursor + len(ids))
    else:
        engine.access_superblock(ids)


def place(engines, groups: dict[int, list[int]]) -> None:
    """Trusted placement of ``{leaf: block ids}`` on every engine.

    An ``S = 1`` plan gives every planned access its own leaf, so it puts
    any grouping of ids onto any leaves.
    """
    ids = [block_id for block_ids in groups.values() for block_id in block_ids]
    leaves = [leaf for leaf, block_ids in groups.items() for _ in block_ids]
    for engine in engines:
        engine.apply_initial_placement(
            LookaheadPlan(ids, leaves, 1, num_leaves=engine.config.num_leaves)
        )


def assert_invariants(engine: LAORAMClient) -> None:
    """Structural soundness of tree + stash after any bin."""
    tree = engine.tree
    stash = engine.stash
    pm_leaves = engine.position_map.as_array()
    depth = tree.depth
    seen: list[np.ndarray] = []
    for level in range(depth + 1):
        capacity = tree.bucket_capacities[level]
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
    stash_ids = np.asarray(stash.block_ids, dtype=np.int64)
    # The stash's leaves agree with the position map.
    assert [stash.leaf_of(b) for b in stash.block_ids] == pm_leaves[stash_ids].tolist()
    seen.append(stash_ids)
    # Conservation: every block exactly once across tree + stash.
    all_ids = np.sort(np.concatenate(seen))
    assert np.array_equal(all_ids, np.arange(NUM_BLOCKS))


def drive_round(engine, rng: np.random.Generator) -> None:
    """One adversarial bin: churn the stash's leaves, then serve."""
    num_leaves = engine.config.num_leaves
    # Churn: remap a random slice of the stash-resident blocks so write-back
    # eligibility differs from where the blocks were fetched.
    resident = list(engine.stash.block_ids)
    take = int(rng.integers(0, len(resident) + 1))
    new_leaves = rng.integers(0, num_leaves, size=take)
    for block_id, leaf in zip(resident[:take], new_leaves.tolist()):
        update_leaf(engine, int(block_id), int(leaf))
    # Up to 64 ids, repeats included: close to one path per distinct id.
    batch = int(rng.integers(1, 65))
    serve_bin(engine, rng.integers(0, NUM_BLOCKS, size=batch))


class TestMultiPathBinDifferential:
    """Kernel == per-object client, field for field, after every bin."""

    @pytest.mark.parametrize("fat_tree", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_bins_stay_identical(self, seed, fat_tree):
        reference, fast = make_twins(seed, fat_tree)
        assert_twins_agree(reference, fast)
        for round_index in range(NUM_ROUNDS):
            # Same driver stream for both engines.
            drive_round(reference, np.random.default_rng((seed, round_index)))
            drive_round(fast, np.random.default_rng((seed, round_index)))
            assert_twins_agree(reference, fast)
            assert_invariants(fast)
        assert fast.statistics.path_reads > 4 * NUM_ROUNDS

    def test_duplicate_leaves_and_paths_sharing_only_the_root(self):
        reference, fast = make_twins(3)
        last = fast.config.num_leaves - 1
        left, right = list(range(100, 106)), list(range(200, 206))
        place((reference, fast), {0: left, last: right})
        # Six blocks per leaf, interleaved: each path is fetched once, and
        # the two meet in the root bucket alone.
        bin_ids = [b for pair in zip(left, right) for b in pair]
        for engine in (reference, fast):
            serve_bin(engine, bin_ids)
            assert engine.statistics.path_reads == 2
        assert_twins_agree(reference, fast)
        assert_invariants(fast)

    def test_single_path_bin_takes_the_fresh_path_write_back(self):
        reference, fast = make_twins(5)
        place((reference, fast), {4: [10, 11, 12]})
        for engine in (reference, fast):
            serve_bin(engine, [10, 11, 12, 10])
            assert engine.statistics.path_reads == 1
        assert_twins_agree(reference, fast)
        assert_invariants(fast)

    def test_neighbouring_paths_find_their_shared_buckets_full(self):
        # Four neighbouring leaves share every bucket above the last two
        # levels, and the twenty blocks placed on each of them outnumber the
        # slots of any one path: the first path written back fills the
        # shared buckets to capacity and the other three must carry their
        # pools past them.
        reference, fast = make_twins(11)
        depth = fast.config.depth
        groups = {leaf: list(range(64 + 20 * leaf, 84 + 20 * leaf)) for leaf in range(4)}
        place((reference, fast), groups)
        for engine in (reference, fast):
            serve_bin(engine, [groups[leaf][0] for leaf in range(4)])
            assert engine.statistics.path_reads == 4
        assert_twins_agree(reference, fast)
        assert_invariants(fast)
        shared = [
            int(fast.tree._level_occ(level)[0]) for level in range(depth - 1)
        ]
        assert shared == [
            fast.tree.bucket_capacities[level] for level in range(depth - 1)
        ]


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


def assert_subtree_filled(engine, leaves) -> None:
    """No block left in the stash fits a held path's bucket on its own path."""
    tree = engine.tree
    depth = tree.depth
    subtree = {(level, leaf >> (depth - level)) for leaf in leaves for level in range(depth + 1)}
    for block_id in engine.stash.block_ids:
        leaf = engine.stash.leaf_of(block_id)
        for level in range(depth + 1):
            node = leaf >> (depth - level)
            if (level, node) in subtree:
                assert tree._level_occ(level)[node] == tree.bucket_capacities[level]


class TestHeldStepDifferential:
    """Held steps: kernel == per-object client after every commit."""

    @pytest.mark.parametrize("fat_tree", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_held_steps_stay_identical(self, seed, fat_tree):
        reference, fast = make_twins(seed, fat_tree)
        for round_index in range(NUM_ROUNDS):
            for engine in (reference, fast):
                rng = np.random.default_rng((seed, round_index))
                resident = list(engine.stash.block_ids)
                take = int(rng.integers(0, len(resident) + 1))
                new_leaves = rng.integers(0, engine.config.num_leaves, size=take)
                for block_id, leaf in zip(resident[:take], new_leaves.tolist()):
                    update_leaf(engine, int(block_id), int(leaf))
                ids = rng.integers(0, NUM_BLOCKS, size=int(rng.integers(1, 129)))
                rows = engine.hold_many(ids)
                leaves = list(engine._held_paths)
                engine.commit(ids, [("step", round_index)] * len(rows))
            assert_twins_agree(reference, fast)
            assert_invariants(fast)
            assert_subtree_filled(fast, leaves)
        assert fast.statistics.path_reads > 4 * NUM_ROUNDS
        assert fast.statistics.path_writes == fast.statistics.path_reads

    def test_a_block_read_on_a_later_path_goes_back_below_the_shared_buckets(self):
        # Twenty blocks on each of four neighbouring leaves, one asked for
        # per leaf.  Written back path after path, the first path would
        # fill the buckets the four share with its own blocks and those of
        # the later paths, and strand what the shared buckets cannot hold;
        # the subtree fill places every block's own leaf bucket first.
        reference, fast = make_twins(11)
        groups = {leaf: list(range(64 + 20 * leaf, 84 + 20 * leaf)) for leaf in range(4)}
        place((reference, fast), groups)
        for engine in (reference, fast):
            ids = [groups[leaf][0] for leaf in range(4)]
            engine.hold_many(ids)
            assert engine.statistics.path_reads == 4
            engine.commit(ids, ["row"] * 4)
        assert_twins_agree(reference, fast)
        assert_invariants(fast)
        assert_subtree_filled(fast, range(4))
        read = make_twins(11)[1]
        place((read,), groups)
        serve_bin(read, [groups[leaf][0] for leaf in range(4)])
        assert len(fast.stash) < len(read.stash)


@st.composite
def subtree_fills(draw):
    """A tree, the leaves a hold read, and a stash of up to 600 entries,
    about half of them under a held leaf at a random depth."""
    depth = draw(st.integers(2, 12))
    fat = draw(st.booleans())
    caps = [max(2, depth + 2 - level) if fat else 4 for level in range(depth + 1)]
    held = draw(st.lists(st.integers(0, (1 << depth) - 1), min_size=1, max_size=64))
    return depth, caps, held, draw(st.integers(0, 600)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(subtree_fills())
def test_the_kernels_subtree_fill_is_the_references(case):
    depth, caps, held, size, seed = case
    rng = np.random.default_rng(seed)
    leaves = rng.integers(0, 1 << depth, size=size)
    near = np.asarray(held)[rng.integers(0, len(held), size=size)]
    low = rng.integers(0, depth + 1, size=size)
    under = (near >> low << low) | (leaves & ((1 << low) - 1))
    leaves = np.where(rng.random(size) < 0.5, under, leaves)
    ids = rng.permutation(10 * size + 1)[:size]
    table = stash_of(dict(zip(ids.tolist(), leaves.tolist())))
    stash = Stash()
    stash.extend(Block(block_id=b, leaf=leaf) for b, leaf in table.items())
    shipped = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    reference = TreeStorage(depth, caps, block_size_bytes=8)

    labels = np.zeros(1, dtype=np.int32)
    serve(*tree_request(shipped, table, None, labels, held=held).values())
    for index, blocks in plan_subtree_write_back(reference, stash, held).items():
        reference.bucket_by_index(index).extend(blocks)
    assert table.items() == stash.items()
    assert shipped.slot_array.tolist() == reference.slot_array.tolist()
    assert np.array_equal(shipped.bucket_occupancies, reference.bucket_occupancies)
