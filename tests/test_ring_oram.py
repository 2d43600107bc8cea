"""Tests for the RingORAM comparator (per-object and array twins)."""

import numpy as np
import pytest

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.oram.config import ORAMConfig
from repro.oram.ring_oram import (
    MAX_DUMMIES_PER_BUCKET,
    ArrayRingORAM,
    RingORAM,
    reverse_lexicographic_leaf,
)

ENGINE_CLASSES = [RingORAM, ArrayRingORAM]


@pytest.fixture
def config():
    return ORAMConfig(num_blocks=128, block_size_bytes=32, seed=9)


class TestReverseLexicographicOrder:
    def test_covers_all_leaves(self):
        depth = 4
        leaves = {reverse_lexicographic_leaf(i, depth) for i in range(1 << depth)}
        assert leaves == set(range(1 << depth))

    def test_alternates_subtrees(self):
        # Consecutive evictions should alternate between the two root subtrees.
        first = reverse_lexicographic_leaf(0, 3)
        second = reverse_lexicographic_leaf(1, 3)
        assert (first < 4) != (second < 4)

    def test_wraps_around(self):
        assert reverse_lexicographic_leaf(8, 3) == reverse_lexicographic_leaf(0, 3)


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
class TestRingORAM:
    def test_construction_places_all_blocks(self, config, engine_cls):
        oram = engine_cls(config)
        assert oram.total_real_blocks() == 128

    def test_invalid_parameters_rejected(self, config, engine_cls):
        with pytest.raises(ConfigurationError):
            engine_cls(config, dummies_per_bucket=0)
        with pytest.raises(ConfigurationError):
            engine_cls(config, evict_rate=0)

    def test_dummy_budget_is_bounded_by_the_read_count_width(self, config, engine_cls):
        """Read counts are one byte: a budget they cannot count to is refused."""
        oram = engine_cls(config, dummies_per_bucket=MAX_DUMMIES_PER_BUCKET)
        assert oram._bucket_read_counts.dtype == np.uint8
        with pytest.raises(ConfigurationError, match="dummies_per_bucket"):
            engine_cls(config, dummies_per_bucket=MAX_DUMMIES_PER_BUCKET + 1)

    def test_payload_round_trip(self, config, engine_cls):
        oram = engine_cls(config)
        oram.write(42, b"spam")
        assert oram.read(42) == b"spam"

    def test_payload_survives_traffic(self, config, engine_cls):
        oram = engine_cls(config)
        oram.write(3, b"keep")
        rng = np.random.default_rng(0)
        for block in rng.integers(0, 128, size=200):
            oram.read(int(block))
        assert oram.read(3) == b"keep"

    def test_block_conservation(self, config, engine_cls):
        oram = engine_cls(config)
        rng = np.random.default_rng(1)
        for block in rng.integers(0, 128, size=200):
            oram.read(int(block))
        assert oram.total_real_blocks() == 128

    def test_out_of_range_rejected(self, config, engine_cls):
        oram = engine_cls(config)
        with pytest.raises(BlockNotFoundError):
            oram.read(128)

    def test_online_read_moves_fewer_bytes_than_pathoram(self, config, engine_cls):
        """RingORAM's headline property: one block per bucket on the online read."""
        from repro.oram.path_oram import PathORAM

        ring = engine_cls(config, evict_rate=4)
        path = PathORAM(config)
        addresses = list(np.random.default_rng(2).integers(0, 128, size=200))
        ring.access_many([int(a) for a in addresses])
        path.access_many([int(a) for a in addresses])
        assert ring.statistics.bytes_read < path.statistics.bytes_read

    def test_eviction_happens_at_configured_rate(self, config, engine_cls):
        oram = engine_cls(config, evict_rate=5)
        for block in range(20):
            oram.read(block)
        # 20 accesses / evict rate 5 = 4 evictions; each is a dummy path read.
        assert oram.statistics.dummy_reads >= 4

    def test_server_memory_exceeds_pathoram_tree(self, config, engine_cls):
        oram = engine_cls(config, dummies_per_bucket=4)
        assert oram.server_memory_bytes > config.server_memory_bytes


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
class TestRingInvariants:
    """Protocol properties RingORAM's security and liveness rest on."""

    def test_bucket_read_counts_stay_below_dummy_budget(self, config, engine_cls):
        # A bucket may serve at most S = dummies_per_bucket single-block
        # reads before it must be reshuffled.  Reshuffling happens at the
        # end of the access that exhausts a bucket, so after every access no
        # bucket's count may ever sit at or above S.
        dummies = 3
        oram = engine_cls(config, dummies_per_bucket=dummies, evict_rate=4)
        rng = np.random.default_rng(5)
        for block in rng.integers(0, 128, size=300):
            oram.read(int(block))
            counts = oram._bucket_read_counts
            assert int(counts.max()) < dummies
            assert int(counts.min()) >= 0

    def test_dummy_reads_indistinguishable_from_real_reads(self, config, engine_cls):
        # A dummy online read (target already in the stash) must move exactly
        # as many buckets and bytes as a real one: one block per bucket along
        # the path.  Evictions and reshuffles are pushed out of the window so
        # the deltas isolate the online reads.
        oram = engine_cls(
            config, dummies_per_bucket=MAX_DUMMIES_PER_BUCKET, evict_rate=10_000
        )
        path_buckets = oram.tree.depth + 1
        path_bytes = path_buckets * oram.tree.stored_block_bytes

        before = oram.statistics
        oram.read(17)  # miss: real online read
        mid = oram.statistics
        oram.read(17)  # hit: the block now sits in the stash -> dummy read
        after = oram.statistics

        real_delta = (
            mid.buckets_read - before.buckets_read,
            mid.bytes_read - before.bytes_read,
        )
        dummy_delta = (
            after.buckets_read - mid.buckets_read,
            after.bytes_read - mid.bytes_read,
        )
        assert real_delta == dummy_delta == (path_buckets, path_bytes)
        # Only the classification differs, never the observable traffic.
        assert mid.path_reads - before.path_reads == 1
        assert mid.dummy_reads - before.dummy_reads == 0
        assert after.path_reads - mid.path_reads == 0
        assert after.dummy_reads - mid.dummy_reads == 1

    def test_every_online_read_touches_full_path(self, config, engine_cls):
        # Across a random workload, buckets_read must grow by exactly
        # depth + 1 per online read plus the bucket reshuffles/evictions,
        # i.e. traffic never leaks whether the target was found early.
        observed = []

        class Observer:
            def observe_path(self, leaf, dummy):
                observed.append((leaf, dummy))

        oram = engine_cls(config, observer=Observer())
        rng = np.random.default_rng(8)
        trace = [int(b) for b in rng.integers(0, 128, size=150)]
        oram.access_many(trace)
        # One observation per logical access, each a full-path online read.
        assert len(observed) == len(trace)
        num_leaves = config.num_leaves
        assert all(0 <= leaf < num_leaves for leaf, _ in observed)
