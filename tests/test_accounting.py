"""Tests for the traffic counters the evaluation metrics are built on."""

import numpy as np
import pytest

from repro.experiments.configs import build_oram_config
from repro.memory.accounting import TrafficCounter

from oracle import build_engine


class TestTrafficCounter:
    def test_path_read_accumulates(self):
        counter = TrafficCounter()
        counter.record_path_read(10, 5120)
        counter.record_path_read(10, 5120)
        snap = counter.snapshot()
        assert snap.path_reads == 2
        assert snap.buckets_read == 20
        assert snap.bytes_read == 10240

    def test_dummy_reads_are_counted_separately(self):
        counter = TrafficCounter()
        counter.record_path_read(10, 5120, dummy=True)
        counter.record_path_read(10, 5120, dummy=False)
        snap = counter.snapshot()
        assert snap.dummy_reads == 1
        assert snap.path_reads == 1

    def test_path_write(self):
        counter = TrafficCounter()
        counter.record_path_write(8, 4096)
        snap = counter.snapshot()
        assert snap.path_writes == 1
        assert snap.bytes_written == 4096

    def test_logical_access_batching(self):
        counter = TrafficCounter()
        counter.record_logical_access(4)
        counter.record_logical_access()
        assert counter.snapshot().logical_accesses == 5

    def test_dummy_reads_per_access(self):
        counter = TrafficCounter()
        counter.record_logical_access(10)
        for _ in range(5):
            counter.record_path_read(10, 100, dummy=True)
        assert counter.snapshot().dummy_reads_per_access == pytest.approx(0.5)

    def test_zero_access_ratios_are_zero(self):
        snap = TrafficCounter().snapshot()
        assert snap.dummy_reads_per_access == 0.0

    def test_stash_peak_tracking(self):
        counter = TrafficCounter()
        counter.observe_stash(10)
        counter.observe_stash(50)
        counter.observe_stash(20)
        assert counter.snapshot().stash_peak == 50

    def test_stash_history_only_when_enabled(self):
        counter = TrafficCounter()
        counter.observe_stash(3)
        assert counter.stash_history == []
        counter.record_stash_history = True
        counter.observe_stash(4)
        assert counter.stash_history == [4]

    def test_background_evictions(self):
        counter = TrafficCounter()
        counter.record_background_eviction()
        assert counter.snapshot().background_evictions == 1

    def test_total_bytes(self):
        counter = TrafficCounter()
        counter.record_path_read(1, 100)
        counter.record_path_write(1, 150)
        assert counter.snapshot().total_bytes == 250

    def test_reset_clears_everything(self):
        counter = TrafficCounter(record_stash_history=True)
        counter.record_logical_access()
        counter.record_path_read(1, 10)
        counter.observe_stash(7)
        counter.reset()
        snap = counter.snapshot()
        assert snap.logical_accesses == 0
        assert snap.path_reads == 0
        assert snap.stash_peak == 0
        assert counter.stash_history == []


class TestEngineClientMemory:
    """``client_memory_bytes`` charges what the client actually holds.

    Regression for the seed accounting bug: stashed blocks were charged
    at ``stored_block_bytes``, which includes ``metadata_bytes_per_block``
    — the server-side wire format's MAC field, never held in client
    memory.  The honest formula is the dense position-map array (or the
    recursion footprint) plus ``block_size_bytes + 16`` per stashed block
    (payload plus the id/leaf bookkeeping rows), plus, on a lookahead
    client, the installed plan's (id, path) record per planned access.
    """

    def _engine(self, metadata_bytes, fast=True):
        # LAORAM's superblock remaps leave a real stash residue (PathORAM's
        # greedy write-back drains to zero at this scale, which would make
        # the stash term vacuous).
        config = build_oram_config(
            num_blocks=4096, block_size_bytes=32, seed=3
        ).with_overrides(
            metadata_bytes_per_block=metadata_bytes,
            background_eviction=False,
        )
        engine = build_engine("Normal/S4", config, fast=fast)
        trace = np.random.default_rng(1).integers(0, 4096, size=2000)
        engine.run_trace(trace)
        return engine

    def test_formula_excludes_server_metadata(self):
        engine = self._engine(metadata_bytes=16)
        assert len(engine.stash) > 0
        # 2000 planned accesses: ids below 4096 take 2 bytes, leaves 2.
        assert engine.plan.metadata_bytes() == 2000 * (2 + 2)
        expected = (
            engine.position_map.client_memory_bytes()
            + len(engine.stash) * (32 + engine.STASH_ENTRY_OVERHEAD_BYTES)
            + engine.plan.metadata_bytes()
        )
        assert engine.client_memory_bytes() == expected

    def test_metadata_size_does_not_change_client_memory(self):
        # Same seed, same trace: only the server wire format differs, so
        # the client footprint must be identical.
        lean = self._engine(metadata_bytes=0)
        fat = self._engine(metadata_bytes=64)
        assert len(lean.stash) == len(fat.stash)
        assert lean.client_memory_bytes() == fat.client_memory_bytes()

    @pytest.mark.parametrize("fast", [False, True])
    def test_the_installed_plan_is_client_memory(self, fast):
        config = build_oram_config(num_blocks=4096, block_size_bytes=32, seed=3)
        engine = build_engine("Normal/S4", config, fast=fast)
        bare = engine.client_memory_bytes()
        plan = engine.preprocess(np.arange(1000))
        # Ids below 1000 and 2048 leaves: two bytes each, per planned access.
        assert plan.metadata_bytes() == 1000 * (2 + 2)
        assert engine.client_memory_bytes() == bare + plan.metadata_bytes()

    def test_recursive_map_included(self):
        config = build_oram_config(
            num_blocks=4096,
            block_size_bytes=32,
            seed=3,
            recursive_posmap=True,
            posmap_cutoff_bytes=1 << 10,
        )
        engine = build_engine("PathORAM", config, fast=True)
        dense_config = config.with_overrides(recursive_posmap=False)
        dense = build_engine("PathORAM", dense_config, fast=True)
        trace = np.random.default_rng(1).integers(0, 4096, size=500)
        engine.run_trace(trace)
        dense.run_trace(trace)
        assert len(engine.stash) == len(dense.stash)
        assert engine.client_memory_bytes() < dense.client_memory_bytes()
