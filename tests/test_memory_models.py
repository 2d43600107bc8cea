"""Tests for the DRAM, interconnect and combined timing models."""

import pytest

from repro.exceptions import ConfigurationError
from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel
from repro.memory.timing import TimingModel


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
    def test_elapsed_accumulates(self):
        timing = TimingModel()
        timing.charge_path_transfer(10, 4096)
        timing.charge_path_transfer(10, 4096)
        assert timing.elapsed_s == pytest.approx(
            2 * timing.path_transfer_delta(10, 4096)
        )

    def test_elapsed_is_free_of_charge_order_and_grouping(self):
        # 0.1-style deltas: a running float sum differs between these two.
        one_by_one, grouped = TimingModel(), TimingModel()
        for _ in range(1000):
            one_by_one.charge_client_overhead()
            one_by_one.charge_path_transfer(13, 7777)
            one_by_one.charge_path_transfer(1, 96)
        grouped.charge_path_transfer(1, 96, count=1000)
        grouped.charge_path_transfer(13, 7777, count=1000)
        grouped.charge_client_overhead(1000)
        assert one_by_one.elapsed_s == grouped.elapsed_s > 0.0

    def test_client_overhead(self):
        timing = TimingModel(client_overhead_us=5.0)
        timing.charge_client_overhead(4)
        assert timing.elapsed_s == pytest.approx(20e-6)

    def test_reset(self):
        timing = TimingModel()
        timing.charge_path_transfer(5, 1024)
        timing.reset()
        assert timing.elapsed_s == 0.0

    def test_bigger_paths_cost_more(self):
        timing = TimingModel()
        small = timing.path_transfer_delta(10, 1024)
        large = timing.path_transfer_delta(10, 1024 * 1024)
        assert large > small
