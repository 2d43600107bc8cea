"""Tests for the sharded multi-engine runner and snapshot merging."""

import numpy as np
import pytest

from repro.core.laoram import LAORAMClient
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficCounter, merge_snapshots

from oracle import REFERENCE_CLASSES, ObjectLAORAMClient, ShardedRunner


class TestMergeSnapshots:
    def test_additive_counters_sum_and_peak_maxes(self):
        counters = []
        for reads, peak in ((3, 10), (5, 7)):
            counter = TrafficCounter()
            counter.record_logical_access(4)
            for _ in range(reads):
                counter.record_path_read(2, 100)
                counter.record_path_write(2, 100)
            counter.observe_stash(peak)
            counters.append(counter.snapshot())
        merged = merge_snapshots(counters)
        assert merged.logical_accesses == 8
        assert merged.path_reads == 8
        assert merged.path_writes == 8
        assert merged.bytes_read == 800
        assert merged.bytes_written == 800
        assert merged.stash_peak == 10

    def test_empty_merge(self):
        merged = merge_snapshots([])
        assert merged.logical_accesses == 0
        assert merged.stash_peak == 0


class TestShardedRunner:
    def test_routing_covers_namespace(self):
        planner = ShardedRunner(num_blocks=103, num_shards=4).planner
        assert sum(planner.shard_num_blocks(s) for s in range(4)) == 103
        for block_id in (0, 1, 50, 102):
            shard = planner.shard_of(block_id)
            assert 0 <= shard < 4
            assert planner.local_id(block_id) < planner.shard_num_blocks(shard)

    def test_split_trace_preserves_order_and_counts(self):
        runner = ShardedRunner(num_blocks=64, num_shards=3)
        addresses = np.asarray([0, 3, 1, 6, 4, 63, 2], dtype=np.int64)
        shards = runner.split_trace(addresses)
        assert sum(s.size for s in shards) == addresses.size
        # shard 0 sees 0, 3, 6, 63 in order, as local ids.
        assert shards[0].tolist() == [0, 1, 2, 21]
        with pytest.raises(ConfigurationError):
            runner.split_trace([64])

    @pytest.mark.parametrize("use_fast_engine", [False, True])
    def test_run_trace_merges_and_conserves(self, use_fast_engine):
        num_blocks = 256
        trace = ZipfTraceGenerator(num_blocks, seed=6).generate(2_000)
        runner = ShardedRunner(
            num_blocks=num_blocks,
            num_shards=4,
            superblock_size=4,
            block_size_bytes=32,
            use_fast_engine=use_fast_engine,
        )
        engine_cls = LAORAMClient if use_fast_engine else ObjectLAORAMClient
        assert all(isinstance(e, engine_cls) for e in runner.engines)
        merged = runner.run_trace(trace.addresses)
        assert merged.logical_accesses == 2_000
        assert runner.total_real_blocks() == num_blocks
        results = runner.results
        assert len(results) == 4
        assert sum(r.num_accesses for r in results) == 2_000
        assert merged.path_reads == sum(r.snapshot.path_reads for r in results)
        assert merged.stash_peak == max(r.snapshot.stash_peak for r in results)
        assert runner.simulated_time_parallel_s <= runner.simulated_time_serial_s
        assert runner.server_memory_bytes == sum(
            engine.server_memory_bytes for engine in runner.engines
        )

    @pytest.mark.parametrize("use_fast_engine", [False, True])
    def test_pathoram_runs_sharded(self, use_fast_engine):
        from repro.experiments.sharded import SHARDABLE_FAMILIES

        num_blocks = 128
        trace = ZipfTraceGenerator(num_blocks, seed=3).generate(600)
        runner = ShardedRunner(
            num_blocks=num_blocks,
            num_shards=3,
            family="pathoram",
            block_size_bytes=32,
            use_fast_engine=use_fast_engine,
        )
        engine_cls = (SHARDABLE_FAMILIES if use_fast_engine else REFERENCE_CLASSES)[
            "pathoram"
        ]
        assert all(type(e) is engine_cls for e in runner.engines)
        merged = runner.run_trace(trace.addresses)
        assert merged.logical_accesses == 600
        assert runner.total_real_blocks() == num_blocks
        assert sum(r.num_accesses for r in runner.results) == 600

    @pytest.mark.parametrize(
        "family,options",
        [
            ("pathoram", {}),
            ("laoram", {}),
            ("pathoram", {"fat_tree": True}),
            ("laoram", {"fat_tree": True}),
            ("laoram", {"superblock_size": 8}),
        ],
        ids=["pathoram", "laoram", "pathoram-fat", "laoram-fat", "laoram-S8"],
    )
    def test_sharded_fast_matches_reference_per_family(self, family, options):
        # Shard engines inherit seed + shard_id in both flavours, so the
        # merged counters of the fast and reference runners must be
        # bit-identical for every family, tree shape and superblock size.
        num_blocks = 128
        trace = ZipfTraceGenerator(num_blocks, seed=11).generate(700)
        merged = [
            ShardedRunner(
                num_blocks=num_blocks,
                num_shards=2,
                family=family,
                block_size_bytes=32,
                use_fast_engine=fast,
                **options,
            ).run_trace(trace.addresses)
            for fast in (False, True)
        ]
        assert merged[0] == merged[1]

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedRunner(num_blocks=64, num_shards=2, family="nosuch")

    def test_sharded_equals_merged_engine_decisions(self):
        # The same trace through fast and reference sharded runners yields
        # identical merged counters (shard engines inherit the seed+shard_id
        # seeding in both cases).
        num_blocks = 128
        trace = ZipfTraceGenerator(num_blocks, seed=9).generate(1_000)
        merged = [
            ShardedRunner(
                num_blocks=num_blocks,
                num_shards=2,
                block_size_bytes=32,
                use_fast_engine=fast,
            ).run_trace(trace.addresses)
            for fast in (False, True)
        ]
        assert merged[0] == merged[1]

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedRunner(num_blocks=64, num_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedRunner(num_blocks=8, num_shards=5)
