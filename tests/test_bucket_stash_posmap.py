"""Tests for the bucket, stash and position-map building blocks."""

import numpy as np
import pytest

from repro.exceptions import BlockNotFoundError, ConfigurationError, StashOverflowError
from repro.oram.config import ORAMConfig
from repro.oram.position_map import LABEL_BYTES, LABEL_DTYPE, PositionMap
from repro.oram.stash import ArrayStash

from oracle import Block, Bucket, Stash


class TestBucket:
    def test_capacity_enforced(self):
        bucket = Bucket(capacity=2)
        bucket.add(Block(0, 0))
        bucket.add(Block(1, 0))
        assert not bucket.has_space()
        with pytest.raises(ValueError):
            bucket.add(Block(2, 0))

    def test_free_slots(self):
        bucket = Bucket(capacity=3)
        bucket.add(Block(0, 0))
        assert bucket.free_slots == 2

    def test_pop_all_empties_bucket(self):
        bucket = Bucket(capacity=3)
        bucket.extend([Block(0, 0), Block(1, 0)])
        blocks = bucket.pop_all()
        assert len(blocks) == 2
        assert len(bucket) == 0

    def test_remove_specific_block(self):
        bucket = Bucket(capacity=3)
        bucket.extend([Block(0, 0), Block(1, 0)])
        removed = bucket.remove(1)
        assert removed.block_id == 1
        assert bucket.remove(1) is None

    def test_find_without_removing(self):
        bucket = Bucket(capacity=2)
        bucket.add(Block(7, 0))
        assert bucket.find(7).block_id == 7
        assert len(bucket) == 1
        assert bucket.find(8) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Bucket(capacity=0)


class TestStash:
    def test_add_and_pop(self):
        stash = Stash()
        stash.add(Block(3, 1))
        assert 3 in stash
        assert stash.pop(3).block_id == 3
        assert 3 not in stash

    def test_get_does_not_remove(self):
        stash = Stash()
        stash.add(Block(3, 1))
        assert stash.get(3) is not None
        assert len(stash) == 1

    def test_duplicate_add_replaces(self):
        stash = Stash()
        stash.add(Block(3, 1, payload=b"a"))
        stash.add(Block(3, 2, payload=b"b"))
        assert len(stash) == 1
        assert stash.get(3).payload == b"b"

    def test_capacity_overflow_raises(self):
        stash = Stash(capacity=2)
        stash.add(Block(0, 0))
        stash.add(Block(1, 0))
        with pytest.raises(StashOverflowError):
            stash.add(Block(2, 0))
        # The block lands before the raise, as on the array stash.
        assert stash.block_ids == [0, 1, 2]

    def test_extend_lands_every_block_before_raising(self):
        # A whole path goes in before the one capacity check, in path
        # order, exactly as on the array stash.
        stash, twin = Stash(capacity=2), ArrayStash(capacity=2)
        stash.add(Block(7, 1))
        twin.add(7, 1)
        with pytest.raises(StashOverflowError):
            stash.extend(Block(block_id, 3) for block_id in (4, 0, 9))
        with pytest.raises(StashOverflowError):
            twin.extend(np.array([4, 0, 9]), np.array([3, 3, 3]))
        assert stash.block_ids == twin.block_ids == [7, 4, 0, 9]
        assert [block.leaf for block in stash] == [twin.leaf_of(i) for i in twin] == [1, 3, 3, 3]

    def test_an_over_full_stash_keeps_taking_blocks(self):
        stash = Stash(capacity=1)
        with pytest.raises(StashOverflowError):
            stash.extend([Block(0, 0), Block(1, 0)])
        # Still over: the next insertion lands and raises again.
        with pytest.raises(StashOverflowError):
            stash.add(Block(2, 0))
        assert stash.block_ids == [0, 1, 2]
        # Back under the bound, an insertion is an ordinary one.
        stash.pop(0)
        stash.pop(1)
        stash.add(Block(2, 4))
        assert stash.block_ids == [2]
        assert stash.get(2).leaf == 4

    def test_replacing_existing_block_does_not_overflow(self):
        stash = Stash(capacity=1)
        stash.add(Block(0, 0))
        stash.add(Block(0, 5))
        assert stash.get(0).leaf == 5

    def test_block_ids_and_iteration(self):
        stash = Stash()
        for block_id in (5, 9, 2):
            stash.add(Block(block_id, 0))
        assert sorted(stash.block_ids) == [2, 5, 9]
        assert sorted(block.block_id for block in stash) == [2, 5, 9]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Stash(capacity=0)


class TestPositionMap:
    def test_initial_leaves_in_range(self):
        rng = np.random.default_rng(0)
        pmap = PositionMap(num_blocks=100, num_leaves=16, rng=rng)
        leaves = pmap.as_array()
        assert leaves.min() >= 0
        assert leaves.max() < 16

    def test_update_swaps_the_label(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        old = pmap.peek(3)
        assert pmap.update(3, 5) == old
        assert pmap.peek(3) == 5
        # The kernel's dense update is the same swap, in place on the
        # entries the tags view.
        tags, entries = pmap.leaf_access()
        assert entries[3] == 5 and np.shares_memory(tags, entries)
        entries[3] = 6
        assert pmap.peek(3) == 6

    def test_peek_many_vectorised(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        many = pmap.peek_many([0, 1, 2])
        assert many.shape == (3,)

    def test_out_of_range_block_rejected(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        with pytest.raises(BlockNotFoundError):
            pmap.update(10, 0)
        with pytest.raises(BlockNotFoundError):
            pmap.peek_many([0, 99])

    def test_out_of_range_leaf_rejected(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            pmap.update(0, 8)

    def test_initial_distribution_is_roughly_uniform(self):
        pmap = PositionMap(20000, 16, np.random.default_rng(0))
        counts = np.bincount(pmap.as_array(), minlength=16)
        assert counts.min() > 1000

    def test_client_memory_reported(self):
        # One stored label per block, at the label width.
        pmap = PositionMap(1000, 16, np.random.default_rng(0))
        assert pmap.client_memory_bytes() == 1000 * LABEL_BYTES == 4000
        assert pmap.top_map_bytes == 4000

    def test_labels_that_do_not_fit_the_dtype_are_rejected(self):
        # Narrowing would wrap silently: refused before anything is drawn.
        with pytest.raises(ConfigurationError, match="4 bytes"):
            PositionMap(4, (1 << 31) + 1, np.random.default_rng(0))

    def test_budget_below_one_label_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="int32"):
            PositionMap(10, 8, rng, cutoff_bytes=LABEL_BYTES - 1)
        with pytest.raises(ConfigurationError, match="int32"):
            ORAMConfig(num_blocks=10, posmap_cutoff_bytes=LABEL_BYTES - 1)
        # One label is a legal budget: recurse down to a one-entry top map.
        assert ORAMConfig(num_blocks=10, posmap_cutoff_bytes=LABEL_BYTES)
        pmap = PositionMap(10, 8, rng, cutoff_bytes=LABEL_BYTES)
        assert pmap.top_map_bytes == LABEL_BYTES

    @pytest.mark.parametrize("cutoff", [None, 64], ids=["dense", "recursive"])
    def test_widest_label_survives_the_narrow_storage(self, cutoff):
        # Depth 30: the largest label is 2**30 - 1.  Stored at the label
        # width, handed out as int64 so no caller's arithmetic narrows.
        num_leaves = 1 << 30
        pmap = PositionMap(
            5000, num_leaves, np.random.default_rng(0), cutoff_bytes=cutoff
        )
        assert pmap.num_levels == (0 if cutoff is None else 2)
        assert pmap._entries.dtype == pmap._top.dtype == LABEL_DTYPE
        assert all(values.dtype == LABEL_DTYPE for values in pmap._values)
        assert all(level.labels.dtype == LABEL_DTYPE for level in pmap._levels)
        pmap.update(7, num_leaves - 1)
        assert pmap.update(7, num_leaves - 1) == pmap.peek(7) == num_leaves - 1
        pmap.load_many([8, 4999], [num_leaves - 1, num_leaves - 2])
        peeked = pmap.peek_many([7, 8, 4999])
        assert peeked.dtype == np.int64
        assert peeked.tolist() == [num_leaves - 1, num_leaves - 1, num_leaves - 2]
        whole = pmap.as_array()
        assert whole.dtype == np.int64 and whole.shape == (5000,)
        assert whole[4999] == num_leaves - 2 and whole.max() == num_leaves - 1
        # int64 out: a caller's shift cannot wrap.
        assert int((peeked << 8)[0]) == (num_leaves - 1) << 8

    def test_non_integer_ids_rejected(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            pmap.peek_many(np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            pmap.load_many(np.array([0.5, 1.5]), [2, 3])

    def test_non_integer_leaves_rejected(self):
        # Float leaves used to be silently truncated into the int64 array;
        # they must now fail with the same exception type the scalar
        # ``set`` raises for an invalid leaf.
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        before = pmap.as_array()
        with pytest.raises(ConfigurationError):
            pmap.load_many([0, 1], np.array([2.7, 3.2]))
        assert np.array_equal(pmap.as_array(), before)  # nothing was written

    def test_load_many_out_of_range_matches_scalar_exceptions(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        with pytest.raises(BlockNotFoundError):
            pmap.load_many([0, 99], [1, 2])
        with pytest.raises(ConfigurationError):
            pmap.load_many([0, 1], [1, 8])

    def test_empty_batches_allowed(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        before = pmap.as_array()
        pmap.load_many([], [])
        assert pmap.peek_many([]).size == 0
        assert np.array_equal(pmap.as_array(), before)

    def test_peek_and_load_channel(self):
        pmap = PositionMap(10, 8, np.random.default_rng(0))
        pmap.load(2, 6)
        assert pmap.peek(2) == 6
        pmap.load_many([3, 4], [1, 2])
        assert pmap.peek_many([3, 4]).tolist() == [1, 2]
        with pytest.raises(BlockNotFoundError):
            pmap.peek(10)
