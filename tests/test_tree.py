"""Tests for the binary-tree server storage (normal and fat)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.experiments.configs import build_engine, build_oram_config
from repro.datasets.zipf import ZipfTraceGenerator
from repro.oram.tree import (
    MAX_BUCKET_CAPACITY,
    PLACE_CHUNK,
    ArrayTreeStorage,
)
from repro.oram.write_back import Stash, serve

from oracle import Block, TreeStorage
from conftest import node_ids, stash_of, tree_request


def make_tree(depth=3, bucket=2, block_size=64, metadata=0, capacities=None):
    caps = capacities if capacities is not None else [bucket] * (depth + 1)
    return TreeStorage(
        depth=depth,
        bucket_capacities=caps,
        block_size_bytes=block_size,
        metadata_bytes_per_block=metadata,
    )


class TestGeometry:
    def test_num_buckets_and_leaves(self):
        tree = make_tree(depth=3)
        assert tree.num_buckets == 15
        assert tree.num_leaves == 8

    def test_capacity_schedule_length_must_match_depth(self):
        with pytest.raises(ConfigurationError):
            TreeStorage(depth=3, bucket_capacities=[4, 4], block_size_bytes=64)

    def test_fat_tree_capacities_per_level(self):
        tree = make_tree(depth=3, capacities=[8, 6, 5, 4])
        assert tree.bucket_capacities[0] == 8
        assert tree.bucket_capacities[3] == 4
        assert tree.bucket(0, 0).capacity == 8
        assert tree.bucket(3, 5).capacity == 4

    def test_total_slots_and_server_bytes(self):
        tree = make_tree(depth=2, bucket=2, block_size=100, metadata=10)
        # 1 + 2 + 4 nodes, 2 slots each, 110 bytes per slot.
        assert tree.total_slots == 14
        assert tree.server_memory_bytes == 14 * 110

    def test_path_cost_counts_all_levels(self):
        tree = make_tree(depth=3, bucket=2, block_size=50)
        num_buckets, num_bytes = tree.path_cost
        assert num_buckets == 4
        assert num_bytes == 8 * 50

    def test_fat_path_cost_is_larger(self):
        normal = make_tree(depth=3, bucket=4)
        fat = make_tree(depth=3, capacities=[8, 7, 5, 4])
        assert fat.path_cost[1] > normal.path_cost[1]


class TestPathOperations:
    def test_read_path_removes_blocks(self):
        tree = make_tree(depth=3)
        tree.bucket(0, 0).add(Block(1, 0))
        tree.bucket(3, 5).add(Block(2, 5))
        blocks = tree.read_path(5)
        ids = {block.block_id for block in blocks}
        assert ids == {1, 2}
        assert tree.real_block_count() == 0

    def test_read_path_ignores_other_paths(self):
        tree = make_tree(depth=3)
        tree.bucket(3, 0).add(Block(1, 0))
        blocks = tree.read_path(7)
        assert blocks == []
        assert tree.real_block_count() == 1

    def test_peek_path_does_not_remove(self):
        tree = make_tree(depth=3)
        tree.bucket(2, 4).add(Block(9, 4))
        assert len(tree.peek_path(4)) == 1
        assert tree.real_block_count() == 1

    def test_write_path_places_blocks_per_level(self):
        tree = make_tree(depth=3, bucket=2)
        tree.write_path(3, {0: [Block(1, 3)], 3: [Block(2, 3), Block(3, 3)]})
        assert tree.real_block_count() == 3
        assert tree.bucket(3, 3).find(2) is not None

    def test_write_path_overflow_rejected(self):
        tree = make_tree(depth=3, bucket=1)
        with pytest.raises(ConfigurationError):
            tree.write_path(0, {0: [Block(1, 0), Block(2, 0)]})

    def test_write_respects_existing_occupancy(self):
        tree = make_tree(depth=3, bucket=1)
        tree.write_path(0, {0: [Block(1, 0)]})
        with pytest.raises(ConfigurationError):
            tree.write_path(1, {0: [Block(2, 1)]})


class TestBulkHelpers:
    def test_try_place_prefers_deepest_level(self):
        tree = make_tree(depth=3, bucket=2)
        block = Block(5, leaf=6)
        assert tree.try_place_on_path(block)
        assert tree.bucket(3, 6).find(5) is not None

    def test_try_place_falls_back_toward_root(self):
        tree = make_tree(depth=2, bucket=1)
        assert tree.try_place_on_path(Block(1, leaf=2))
        assert tree.try_place_on_path(Block(2, leaf=2))
        assert tree.try_place_on_path(Block(3, leaf=2))
        # Path is now full at every level.
        assert not tree.try_place_on_path(Block(4, leaf=2))

    def test_occupancy_by_level(self):
        tree = make_tree(depth=2, bucket=2)
        tree.bucket(0, 0).add(Block(1, 0))
        occupancy = tree.occupancy_by_level()
        assert occupancy[0] == pytest.approx(0.5)
        assert occupancy[1] == 0.0

    def test_iter_blocks(self):
        tree = make_tree(depth=2, bucket=2)
        tree.bucket(0, 0).add(Block(1, 0))
        tree.bucket(2, 3).add(Block(2, 3))
        assert {block.block_id for block in tree.iter_blocks()} == {1, 2}


class TestArrayBulkPlacement:
    """``bulk_place_ordered`` against the scalar ``try_place_id`` loop it replaces."""

    @staticmethod
    def _array_tree(depth, capacities):
        return ArrayTreeStorage(
            depth=depth, bucket_capacities=capacities, block_size_bytes=64
        )

    def _assert_matches_scalar_loop(self, depth, capacities, block_ids, leaves):
        bulk = self._array_tree(depth, capacities)
        scalar = self._array_tree(depth, capacities)
        overflow = bulk.bulk_place_ordered(block_ids, leaves)
        expected_overflow = [
            block_id
            for block_id, leaf in zip(block_ids.tolist(), leaves.tolist())
            if not scalar.try_place_id(block_id, leaf)
        ]
        assert overflow.tolist() == expected_overflow
        assert np.array_equal(bulk.slot_array, scalar.slot_array)
        assert np.array_equal(bulk.bucket_occupancies, scalar.bucket_occupancies)
        return overflow

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "depth, capacities",
        [(4, [2] * 5), (5, [6, 5, 4, 3, 2, 2]), (3, [1] * 4)],
        ids=["uniform", "fat", "single-slot"],
    )
    def test_non_ascending_priorities(self, depth, capacities, seed):
        """Sequence position, not block id, decides who wins a contested slot."""
        rng = np.random.default_rng(seed)
        count = 3 * (1 << depth)
        block_ids = rng.permutation(count)
        leaves = rng.integers(0, 1 << depth, size=count)
        self._assert_matches_scalar_loop(depth, capacities, block_ids, leaves)

    def test_heavy_bucket_contention_overflows_in_sequence_order(self):
        """Everything on two paths: most blocks lose and climb or overflow."""
        rng = np.random.default_rng(5)
        depth, capacities = 4, [3, 2, 2, 2, 2]
        block_ids = rng.permutation(200)
        leaves = rng.choice([3, 12], size=200)
        overflow = self._assert_matches_scalar_loop(depth, capacities, block_ids, leaves)
        assert overflow.size > 150

    def test_second_call_respects_existing_occupancy(self):
        rng = np.random.default_rng(9)
        depth, capacities = 4, [2] * 5
        bulk = self._array_tree(depth, capacities)
        scalar = self._array_tree(depth, capacities)
        for block_ids in (np.arange(40), np.arange(40, 90)):
            leaves = rng.integers(0, 16, size=block_ids.size)
            overflow = bulk.bulk_place_ordered(block_ids, leaves)
            expected = [
                b for b, leaf in zip(block_ids.tolist(), leaves.tolist())
                if not scalar.try_place_id(b, leaf)
            ]
            assert overflow.tolist() == expected
        assert np.array_equal(bulk.slot_array, scalar.slot_array)

    def test_empty_input(self):
        tree = self._array_tree(3, [2] * 4)
        empty = np.empty(0, dtype=np.int64)
        assert tree.bulk_place_ordered(empty, empty).size == 0
        assert tree.real_block_count() == 0

    def test_placement_chunk_seam_is_invisible(self):
        """Chunks of PLACE_CHUNK positions replay the one sequential loop.

        Non-ascending priorities; the first chunk piles onto eight paths and
        overflows; three paths are contested from both sides of the seam;
        the second chunk spreads over the tree and ends on a full path.
        """
        rng = np.random.default_rng(13)
        depth, capacities = 10, [4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
        count = PLACE_CHUNK + 3000
        block_ids = rng.permutation(count)
        leaves = rng.integers(0, 8, size=count)
        leaves[PLACE_CHUNK - 40 : PLACE_CHUNK + 40] = rng.choice([300, 301, 700], size=80)
        leaves[PLACE_CHUNK + 40 :] = rng.integers(0, 1 << depth, size=count - PLACE_CHUNK - 40)
        leaves[-10:] = 5
        overflow = self._assert_matches_scalar_loop(depth, capacities, block_ids, leaves)
        position = {block_id: i for i, block_id in enumerate(block_ids.tolist())}
        lost_at = [position[block_id] for block_id in overflow.tolist()]
        assert lost_at == sorted(lost_at)
        assert lost_at[0] < PLACE_CHUNK <= lost_at[-1]
        # The contested paths took blocks from both sides of the seam.
        bulk = self._array_tree(depth, capacities)
        bulk.bulk_place_ordered(block_ids, leaves)
        stored = set(bulk.slot_array[bulk.slot_array >= 0].tolist())
        contested = block_ids[PLACE_CHUNK - 40 : PLACE_CHUNK + 40].tolist()
        assert any(b in stored for b in contested[:40])
        assert any(b in stored for b in contested[40:])
        assert not all(b in stored for b in contested)

    def test_sort_key_fits_at_paper_scale_and_is_rejected_when_it_cannot(self):
        """``node << bits | position`` must stay below 2^63 or the sort order wraps."""
        # The position part spans one chunk, whatever the number of blocks:
        # the largest tree the benchmarks build (depth 23, 2^24 rows) needs
        # 23 + 17 bits, and the key fits up to a depth-46 tree.
        bits = PLACE_CHUNK.bit_length()
        assert ((1 << 23) - 1) << bits | (PLACE_CHUNK - 1) < 1 << 40
        assert 46 + bits == 63
        # A deep, narrow tree really sorts keys that large in the node part.
        rng = np.random.default_rng(4)
        block_ids = rng.permutation(300)
        leaves = rng.integers(0, 1 << 16, size=300)
        leaves[:50] = (1 << 16) - 1
        self._assert_matches_scalar_loop(16, [1] * 17, block_ids, leaves)
        # Past 63 bits the placement refuses instead of wrapping silently:
        # a few positions on a very deep tree, a full chunk on a depth-47 one.
        tree = self._array_tree(3, [2] * 4)
        tree.depth = 61
        with pytest.raises(ConfigurationError, match="sort key"):
            tree.bulk_place_ordered(np.arange(4), np.zeros(4, dtype=np.int64))
        tree.depth = 47
        with pytest.raises(ConfigurationError, match="sort key"):
            tree.bulk_place_ordered(
                np.arange(PLACE_CHUNK + 1), np.zeros(PLACE_CHUNK + 1, dtype=np.int64)
            )

    def test_bucket_capacity_is_bounded_by_the_occupancy_width(self):
        """One-byte occupancies count a full 255-slot bucket without wrapping."""
        tree = self._array_tree(1, [MAX_BUCKET_CAPACITY] * 2)
        assert tree.slot_array.dtype == np.int32
        assert tree.bucket_occupancies.dtype == np.uint8
        placed = [tree.try_place_id(b, 0) for b in range(2 * MAX_BUCKET_CAPACITY + 1)]
        assert placed == [True] * (2 * MAX_BUCKET_CAPACITY) + [False]
        occupancy = tree.occupancy_view[0]
        assert type(occupancy) is int and occupancy == MAX_BUCKET_CAPACITY
        assert tree.real_block_count() == 2 * MAX_BUCKET_CAPACITY
        tree.remove_many(np.array([0]), np.array([0]))
        assert tree.occupancy_view[1] == MAX_BUCKET_CAPACITY - 1
        with pytest.raises(ConfigurationError, match="bucket capacity"):
            self._array_tree(2, [MAX_BUCKET_CAPACITY + 1, 4, 4])


def assert_dense_prefixes(tree):
    """Occupied slots are each bucket's first ``occ`` slots, the rest ``-1``.

    The fetch reads a bucket's ``[0, occ)`` only, so a block stored past
    its bucket's occupancy would be lost to it.
    """
    slots, occ = tree.slot_array, tree.bucket_occupancies
    for level, capacity in enumerate(tree.bucket_capacities):
        start = tree.level_base[level]
        level_slots = slots[start : start + (1 << level) * capacity].reshape(
            1 << level, capacity
        )
        level_occ = occ[(1 << level) - 1 : (1 << (level + 1)) - 1]
        held = np.arange(capacity) < level_occ[:, None]
        assert (level_slots[held] >= 0).all()
        assert (level_slots[~held] == -1).all()


def _remove_on_path(tree, leaf, block_id):
    """One block off the first bucket holding it on the path, as ``Bucket.remove``.

    The scalar oracle for ``remove_many``: the bucket's later occupants
    shift down one slot, so insertion order is kept.
    """
    slots, occ = tree.slot_array, tree.bucket_occupancies
    for level, capacity in enumerate(tree.bucket_capacities):
        node = leaf >> (tree.depth - level)
        bucket = (1 << level) - 1 + node
        start = tree.level_base[level] + node * capacity
        held = slots[start : start + int(occ[bucket])].tolist()
        if block_id in held:
            held.remove(block_id)
            slots[start : start + capacity] = held + [-1] * (capacity - len(held))
            occ[bucket] = len(held)
            return True
    return False


class TestArrayBulkRemoval:
    """``remove_many`` against the scalar removal loop it stands for."""

    @staticmethod
    def _filled_pair(depth, capacities, seed, per_leaf=3):
        """Two identical trees holding blocks ``0..n-1`` and the blocks' leaves."""
        rng = np.random.default_rng(seed)
        leaves = rng.integers(0, 1 << depth, size=per_leaf * (1 << depth))
        trees = []
        for _ in range(2):
            tree = ArrayTreeStorage(
                depth=depth, bucket_capacities=capacities, block_size_bytes=64
            )
            overflow = tree.bulk_place(leaves)
            trees.append(tree)
        stored = np.setdiff1d(np.arange(leaves.size), overflow)
        return trees[0], trees[1], leaves, stored

    def _assert_matches_scalar_loop(self, bulk, scalar, victims, leaves):
        before = bulk.real_block_count()
        bulk.remove_many(victims, leaves[victims])
        for block_id in victims.tolist():
            assert _remove_on_path(scalar, int(leaves[block_id]), block_id)
        assert np.array_equal(bulk.slot_array, scalar.slot_array)
        assert np.array_equal(bulk.bucket_occupancies, scalar.bucket_occupancies)
        assert bulk.real_block_count() == before - victims.size
        assert_dense_prefixes(bulk)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "depth, capacities",
        [(4, [2] * 5), (5, [6, 5, 4, 3, 2, 2]), (3, [1] * 4)],
        ids=["uniform", "fat", "single-slot"],
    )
    def test_random_victims(self, depth, capacities, seed):
        bulk, scalar, leaves, stored = self._filled_pair(depth, capacities, seed)
        rng = np.random.default_rng(seed + 10)
        victims = np.sort(rng.choice(stored, size=stored.size // 3, replace=False))
        self._assert_matches_scalar_loop(bulk, scalar, victims, leaves)

    def test_one_path_loses_victims_in_every_bucket_root_included(self):
        """Several victims per bucket, at every level of one path, gaps closed."""
        depth, capacities = 3, [4, 3, 3, 3]
        trees = [
            ArrayTreeStorage(depth=depth, bucket_capacities=capacities, block_size_bytes=64)
            for _ in range(2)
        ]
        leaves = np.full(13, 5, dtype=np.int64)
        for tree in trees:
            # Thirteen blocks fill the path to leaf 5 exactly: 0-2 in the
            # leaf bucket, 3-5 and 6-8 above it, 9-12 at the root.
            assert tree.bulk_place(leaves).size == 0
        bulk, scalar = trees
        # First and last of the leaf bucket, the middle one of level 2, the
        # whole of level 1, and two non-adjacent slots of the root.
        victims = np.array([0, 2, 4, 6, 7, 8, 9, 11])
        self._assert_matches_scalar_loop(bulk, scalar, victims, leaves)
        assert [ids.tolist() for _, _, ids in node_ids(bulk)] == [
            [10, 12], [3, 5], [1],
        ]

    def test_empty_input(self):
        bulk, scalar, leaves, _ = self._filled_pair(3, [2] * 4, seed=3)
        self._assert_matches_scalar_loop(
            bulk, scalar, np.empty(0, dtype=np.int64), leaves
        )

    def test_missing_block_raises_and_removes_nothing(self):
        bulk, untouched, leaves, stored = self._filled_pair(4, [2] * 5, seed=4)
        victims = stored[:6].copy()
        wrong_leaves = leaves[victims].copy()
        # One victim is looked for on a path through the root's other child;
        # it sits below level 1, so no bucket of that path holds it.
        deep = [
            b for b in stored.tolist()
            if b not in bulk.slot_array[: bulk.level_base[2]].tolist()
        ]
        victims[3] = deep[-1]
        wrong_leaves[3] = leaves[victims[3]] ^ (1 << 3)
        with pytest.raises(BlockNotFoundError):
            bulk.remove_many(victims, wrong_leaves)
        assert np.array_equal(bulk.slot_array, untouched.slot_array)
        assert np.array_equal(bulk.bucket_occupancies, untouched.bucket_occupancies)
        assert_dense_prefixes(bulk)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relocation_touches_only_the_old_and_new_paths(self, seed):
        """Cost follows the moved blocks: every other slot is byte-identical."""
        depth, capacities = 6, [5, 4, 3, 3, 2, 2, 2]
        tree, _, leaves, stored = self._filled_pair(depth, capacities, seed, per_leaf=2)
        rng = np.random.default_rng(seed + 20)
        moved = np.sort(rng.choice(stored, size=12, replace=False))
        new_leaves = rng.integers(0, 1 << depth, size=moved.size)
        before = tree.slot_array.copy()
        occ_before = tree.bucket_occupancies.copy()
        tree.remove_many(moved, leaves[moved])
        tree.bulk_place_ordered(moved, new_leaves)
        touched_leaves = np.concatenate([leaves[moved], new_leaves])
        on_a_path = np.zeros(before.size, dtype=bool)
        bucket_on_a_path = np.zeros(occ_before.size, dtype=bool)
        for leaf in touched_leaves.tolist():
            for level, capacity in enumerate(capacities):
                node = leaf >> (depth - level)
                start = tree.level_base[level] + node * capacity
                on_a_path[start : start + capacity] = True
                bucket_on_a_path[(1 << level) - 1 + node] = True
        assert not on_a_path.all()
        assert np.array_equal(tree.slot_array[~on_a_path], before[~on_a_path])
        assert np.array_equal(
            tree.bucket_occupancies[~bucket_on_a_path], occ_before[~bucket_on_a_path]
        )
        assert_dense_prefixes(tree)


#: One uniform and one fat geometry, as the engines build them.
GEOMETRIES = {
    "uniform": (5, [4] * 6),
    "fat": (5, [7, 6, 5, 4, 3, 2]),
}


@st.composite
def filled_paths(draw):
    """A uniform or fat tree, filled at random, a leaf and a non-empty stash.

    The path's own buckets take drawn occupancies (empty to full); every
    other bucket is filled from a drawn seed, so a read that strays off its
    path shows in the slots.
    """
    depth = draw(st.integers(min_value=2, max_value=10))
    if draw(st.booleans()):
        capacities = [draw(st.integers(min_value=1, max_value=6))] * (depth + 1)
    else:
        capacities = draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=depth + 1, max_size=depth + 1,
            ).filter(lambda caps: len(set(caps)) > 1)
        )
    leaf = draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
    on_path = [draw(st.integers(min_value=0, max_value=cap)) for cap in capacities]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    stash_size = draw(st.integers(min_value=1, max_value=8))
    return depth, capacities, leaf, on_path, seed, stash_size


def _filled_tree(depth, capacities, leaf, on_path, seed):
    """A tree whose buckets hold ids ``0, 1, ...`` in their first ``occ`` slots."""
    tree = ArrayTreeStorage(depth, capacities, 64)
    rng = np.random.default_rng(seed)
    next_id = 0
    for level, capacity in enumerate(capacities):
        held = rng.integers(0, capacity + 1, size=1 << level)
        held[leaf >> (depth - level)] = on_path[level]
        start = tree.level_base[level]
        level_slots = tree.slot_array[start : start + (1 << level) * capacity]
        mask = (np.arange(capacity) < held[:, None]).ravel()
        level_slots[mask] = np.arange(next_id, next_id + mask.sum())
        next_id += int(mask.sum())
        tree.bucket_occupancies[(1 << level) - 1 : (2 << level) - 1] = held
    return tree, next_id


def _reference_tree(tree):
    """The per-object reference tree holding ``tree``'s buckets, id for id."""
    reference = TreeStorage(tree.depth, tree.bucket_capacities, 64)
    for level, node, ids in node_ids(tree):
        reference.bucket_by_index((1 << level) - 1 + node).extend(
            Block(block_id=block_id, leaf=0) for block_id in ids.tolist()
        )
    return reference


def native_read(tree, stash, entries, block_id):
    """The C path read over ``tree``'s operands: a held one-id bin of
    ``block_id``, which reads the path ``entries[block_id]`` names and
    writes nothing back; the block takes that leaf again."""
    leaf = int(entries[block_id])
    request = tree_request(tree, stash, [block_id], entries, leaves=[leaf], holding=True)
    serve(*request.values())
    assert request["held_paths"] == [leaf]


class TestPathReads:
    """One native read for every tree, uniform or fat."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(filled_paths())
    @pytest.mark.parametrize("view", [np.asarray, memoryview])
    def test_the_fetch_reads_as_the_reference_tree(self, view, case):
        """Stash order and labels, slots and occupancies: the reference's.

        The map's entries, which label what the read brings in, go in as an
        array or as a memoryview of it.  The bin asks for the first block on the
        path, or, on an empty path, for a block that sits nowhere: the read
        lands, then the bin raises.
        """
        depth, capacities, leaf, on_path, seed, stash_size = case
        tree, num_ids = _filled_tree(depth, capacities, leaf, on_path, seed)
        reference = _reference_tree(tree)
        rng = np.random.default_rng(seed + 1)
        entries = rng.integers(0, 1 << depth, size=num_ids + stash_size + 1).astype(np.int32)
        expected = {num_ids + i: int(entries[num_ids + i]) for i in range(stash_size)}
        stash = stash_of(expected)
        read = [block.block_id for block in reference.read_path(leaf)]
        block_id = read[0] if read else num_ids + stash_size
        entries[block_id] = leaf
        expected.update((block, int(entries[block])) for block in read)

        if read:
            native_read(tree, stash, view(entries), block_id)
        else:
            with pytest.raises(BlockNotFoundError):
                native_read(tree, stash, view(entries), block_id)
        assert stash.items() == list(expected.items())
        assert len(stash) == stash_size + sum(on_path)
        assert tree.slot_array.tolist() == reference.slot_array.tolist()
        assert np.array_equal(tree.bucket_occupancies, reference.bucket_occupancies)
        assert_dense_prefixes(tree)

    @pytest.mark.parametrize(
        "capacities", [[4] * 17, [5] + [4] * 16], ids=["uniform", "fat"]
    )
    def test_no_tree_holds_per_path_tables(self, capacities):
        """A depth-16 tree holds its slots and occupancies, nothing per path."""
        tracemalloc.start()
        try:
            tree = ArrayTreeStorage(16, capacities, 64)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - tree.slot_array.nbytes - tree.bucket_occupancies.nbytes < 16 << 10

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_slots_past_the_occupancy_hold_minus_one(self, geometry):
        """After every way the tree is written: placement, removal, kernels."""
        depth, capacities = GEOMETRIES[geometry]
        rng = np.random.default_rng(7)
        # Crowded onto a quarter of the leaves, so the placement overflows.
        count = 3 << depth
        leaves = rng.integers(0, 1 << (depth - 2), size=count)

        tree = ArrayTreeStorage(depth, capacities, 64)
        overflow = tree.bulk_place(leaves)
        assert overflow.size
        assert_dense_prefixes(tree)
        stored = np.setdiff1d(np.arange(count), overflow)
        victims = np.sort(rng.choice(stored, size=stored.size // 3, replace=False))
        tree.remove_many(victims, leaves[victims])
        assert_dense_prefixes(tree)
        for block_id in victims[: victims.size // 2].tolist():
            tree.try_place_id(block_id, int(leaves[block_id]))
        assert_dense_prefixes(tree)
        order = rng.permutation(count)
        placed = ArrayTreeStorage(depth, capacities, 64)
        placed.bulk_place_ordered(order, leaves[order])
        assert_dense_prefixes(placed)
        stash = Stash()
        native_read(placed, stash, leaves.astype(np.int32), int(order[0]))
        assert stash
        assert_dense_prefixes(placed)

    @pytest.mark.parametrize("label", ["PathORAM", "Fat/S4"])
    def test_a_kernel_trace_keeps_the_dense_prefixes(self, label):
        config = build_oram_config(1 << 10, seed=5)
        engine = build_engine(label, config, fast=True)
        engine.run_trace(ZipfTraceGenerator(1 << 10, seed=5).generate(3000).addresses)
        assert engine.total_real_blocks() == 1 << 10
        assert_dense_prefixes(engine.tree)
