"""Tests for the DRAM, interconnect and combined timing models."""

import dataclasses

import numpy as np
import pytest

from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.experiments.sharded import ShardedRunner
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel
from repro.memory.timing import PAPER_TIMING, TimingModel
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory

from oracle import build_engine


class TestDRAMModel:
    def test_access_time_scales_with_buckets(self):
        dram = DRAMModel(row_access_latency_ns=50.0, bandwidth_gib_per_s=16.0)
        assert dram.access_time_s(10, 0) == pytest.approx(500e-9)

    def test_access_time_scales_with_bytes(self):
        dram = DRAMModel(row_access_latency_ns=0.0, bandwidth_gib_per_s=1.0)
        one_gib = 1 << 30
        assert dram.access_time_s(0, one_gib) == pytest.approx(1.0)

    def test_negative_counts_rejected(self):
        dram = DRAMModel()
        with pytest.raises(ValueError):
            dram.access_time_s(-1, 0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAMModel(bandwidth_gib_per_s=0.0)


class TestInterconnectModel:
    def test_latency_per_request(self):
        link = InterconnectModel(request_latency_us=10.0, bandwidth_gib_per_s=8.0)
        assert link.transfer_time_s(3, 0) == pytest.approx(30e-6)

    def test_bandwidth_term(self):
        link = InterconnectModel(request_latency_us=0.0, bandwidth_gib_per_s=2.0)
        assert link.transfer_time_s(0, 1 << 31) == pytest.approx(1.0)

    def test_invalid_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectModel(request_latency_us=-1.0)


class TestTimingModel:
    """The model is a set of prices; simulated time is the price of counts."""

    def test_prices_a_hand_built_snapshot(self):
        timing = TimingModel(
            dram=DRAMModel(row_access_latency_ns=50.0, bandwidth_gib_per_s=1.0),
            interconnect=InterconnectModel(
                request_latency_us=10.0, bandwidth_gib_per_s=2.0
            ),
            client_overhead_us=5.0,
        )
        snapshot = TrafficSnapshot(
            logical_accesses=3,
            path_reads=2,
            path_writes=3,
            dummy_reads=1,
            buckets_read=30,
            buckets_written=30,
            bytes_read=3000,
            bytes_written=3000,
            stash_peak=7,
            background_evictions=1,
            posmap_path_reads=1,
            posmap_path_writes=1,
            posmap_bytes_read=200,
            posmap_bytes_written=200,
            posmap_buckets_read=4,
            posmap_buckets_written=4,
        )
        requests, activations, moved = 2 + 1 + 3 + 1 + 1, 30 + 30 + 4 + 4, 6400
        by_hand = (
            3 * 5e-6
            + requests * 10e-6
            + activations * 50e-9
            + moved / (1 << 30)
            + moved / (2 << 30)
        )
        assert timing.elapsed_s(snapshot) == pytest.approx(by_hand, rel=1e-15)

    def test_live_counter_and_its_snapshot_price_alike(self):
        counter = TrafficCounter()
        counter.record_logical_access(2)
        counter.record_path_read(13, 7777)
        counter.record_path_write(13, 7777)
        counter.record_posmap_path_write(3, 96)
        assert PAPER_TIMING.elapsed_s(counter) == PAPER_TIMING.elapsed_s(
            counter.snapshot()
        ) > 0.0

    def test_recursion_buckets_are_priced(self):
        # A recursion path costs what a main-tree path of its shape costs.
        main, posmap = TrafficCounter(), TrafficCounter()
        main.record_path_read(5, 640)
        main.record_path_write(5, 640)
        posmap.record_posmap_path_read(5, 640)
        posmap.record_posmap_path_write(5, 640)
        flat = TrafficCounter()
        flat.record_posmap_path_read(0, 640)
        flat.record_posmap_path_write(0, 640)
        assert PAPER_TIMING.elapsed_s(posmap) == PAPER_TIMING.elapsed_s(main)
        assert PAPER_TIMING.elapsed_s(posmap) > PAPER_TIMING.elapsed_s(flat)

    def test_client_overhead(self):
        counter = TrafficCounter()
        counter.record_logical_access(4)
        timing = TimingModel(client_overhead_us=5.0)
        assert timing.elapsed_s(counter) == pytest.approx(20e-6)

    def test_bigger_paths_cost_more(self):
        small, large = TrafficCounter(), TrafficCounter()
        small.record_path_read(10, 1024)
        large.record_path_read(10, 1024 * 1024)
        assert PAPER_TIMING.elapsed_s(large) > PAPER_TIMING.elapsed_s(small)

    def test_holds_prices_only(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_TIMING.client_overhead_us = 0.0
        assert [spec.name for spec in dataclasses.fields(TimingModel)] == [
            "dram", "interconnect", "client_overhead_us",
        ]

    def test_sharded_serial_clock_is_the_price_of_the_merged_snapshot(self):
        trace = ZipfTraceGenerator(1024, exponent=1.1, seed=5).generate(600)
        runner = ShardedRunner(
            num_blocks=1024, num_shards=4, family="pathoram", seed=2
        )
        runner.run_trace(trace.addresses)
        assert runner.simulated_time_serial_s == pytest.approx(
            PAPER_TIMING.elapsed_s(runner.merged_snapshot()), rel=1e-12
        )


RESET_LABELS = ("PathORAM", "Normal/S4", "Fat/S4", "Fat/S8")


class TestClockFollowsTheCounters:
    """There is no second ledger: resetting the counters resets the clock."""

    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "array"])
    @pytest.mark.parametrize("label", RESET_LABELS)
    def test_counter_reset_zeroes_the_clock(self, label, fast, recursive):
        config = build_oram_config(
            num_blocks=256,
            seed=4,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=64,
        )
        engine = build_engine(label, config, fast=fast)
        trace = np.random.default_rng(8).integers(0, 256, size=200)
        engine.run_trace(trace)
        assert engine.simulated_time_s > 0.0
        engine.counter.reset()
        assert engine.statistics.logical_accesses == 0
        assert engine.simulated_time_s == 0.0
        engine.run_trace(trace[:10])
        assert engine.simulated_time_s == pytest.approx(
            PAPER_TIMING.elapsed_s(engine.statistics), rel=0
        )

    def test_insecure_counter_reset_zeroes_the_clock(self):
        memory = InsecureMemory(ORAMConfig(num_blocks=64))
        for block_id in range(64):
            memory.read(block_id)
        assert memory.simulated_time_s > 0.0
        memory.counter.reset()
        assert memory.simulated_time_s == 0.0
