"""Tests for the adversarial observers and leakage analysis."""

import pytest

from repro.attacks.analysis import (
    analyze_address_leakage,
    analyze_path_obliviousness,
    recover_access_histogram,
)
from repro.attacks.observer import CuriousOSObserver, MemoryBusObserver
from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory
from repro.utils.rng import make_rng

from oracle import ObjectPathORAM


class TestObservers:
    def test_memory_bus_observer_records_both_kinds(self):
        observer = MemoryBusObserver()
        observer.observe_address(5)
        observer.observe_path(3, dummy=True)
        assert observer.observed_addresses == [5]
        assert observer.observed_paths == [3]
        assert observer.observed_dummy_flags == [True]
        assert observer.num_observations == 2

    def test_reset(self):
        observer = MemoryBusObserver()
        observer.observe_address(1)
        observer.reset()
        assert observer.num_observations == 0

    def test_curious_os_page_and_cacheline_views(self):
        observer = CuriousOSObserver(
            block_size_bytes=128, page_size_bytes=4096, cache_line_bytes=128
        )
        observer.observe_address(33)  # byte 4224 -> page 1, line 33
        assert observer.observed_pages == [1]
        assert observer.observed_cache_lines == [33]

    def test_curious_os_recovers_block_ids_at_cacheline_granularity(self):
        observer = CuriousOSObserver(block_size_bytes=128, cache_line_bytes=128)
        for block in (7, 123, 7):
            observer.observe_address(block)
        assert observer.recovered_block_ids() == [7, 123, 7]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CuriousOSObserver(block_size_bytes=0)
        with pytest.raises(ConfigurationError):
            CuriousOSObserver(block_size_bytes=64, page_size_bytes=32, cache_line_bytes=64)


class TestLeakageAnalysis:
    def test_histogram_recovery(self):
        assert recover_access_histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_insecure_baseline_leaks_everything(self):
        config = ORAMConfig(num_blocks=64, block_size_bytes=128)
        observer = CuriousOSObserver(block_size_bytes=128, cache_line_bytes=128)
        memory = InsecureMemory(config, observer=observer)
        rng = make_rng(0)
        addresses = rng.integers(0, 64, size=400).tolist()
        for address in addresses:
            memory.read(int(address))
        report = analyze_address_leakage(addresses, observer.recovered_block_ids())
        assert report.top1_recovery_rate == 1.0
        assert report.leakage_fraction > 0.95

    def test_oram_path_stream_reveals_little(self):
        config = ORAMConfig(num_blocks=256, block_size_bytes=64, seed=8)
        observer = MemoryBusObserver()
        oram = ObjectPathORAM(config, observer=observer)
        rng = make_rng(1)
        addresses = rng.integers(0, 256, size=600).tolist()
        for address in addresses:
            oram.read(int(address))
        report = analyze_path_obliviousness(
            addresses, observer.observed_paths, num_leaves=config.num_leaves
        )
        assert report.looks_oblivious

    def test_skewed_path_stream_is_flagged(self):
        # A degenerate "ORAM" that always touches path 0 must fail the test.
        observed = [0] * 500
        report = analyze_path_obliviousness(
            list(range(500)), observed, num_leaves=16
        )
        assert not report.looks_oblivious

    def test_leakage_report_handles_empty_observations(self):
        report = analyze_address_leakage([1, 2, 3], [])
        assert report.mutual_information_bits == 0.0
        assert report.top1_recovery_rate == 0.0
