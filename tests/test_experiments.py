"""Tests for the experiment harness (configs, runner, scales, metrics)."""

import re

import pytest

from repro.datasets.registry import make_trace
from repro.exceptions import ConfigurationError
from repro.experiments.configs import (
    EXTRA_CONFIG_LABELS,
    PAPER_CONFIG_LABELS,
    build_engine,
    build_oram_config,
    parse_label,
)
from repro.experiments.metrics import ExperimentResult
from repro.experiments.runner import compare_configurations, run_configuration
from repro.experiments.scale import TINY, get_scale
from repro.memory.accounting import TrafficSnapshot
from repro.core.laoram import LAORAMClient
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM


class TestScale:
    def test_presets_resolve_by_name(self):
        assert get_scale("tiny").num_blocks == 1 << 10
        assert get_scale("large").num_accesses == 65_536

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_secondary_blocks_default_doubles(self):
        assert TINY.secondary_blocks == TINY.num_blocks * 2


class TestLabels:
    def test_parse_paper_labels(self):
        assert parse_label("PathORAM")["family"] == "pathoram"
        parsed = parse_label("Fat/S8")
        assert parsed == {"family": "laoram", "fat_tree": True, "superblock_size": 8}

    def test_parse_extra_labels(self):
        assert parse_label("Insecure") == {"family": "insecure"}

    @pytest.mark.parametrize(
        "label", ["FancyORAM", "RingORAM", "Fat/Sx", "Fat/S", "Normal/S4x"]
    )
    def test_unknown_label_rejected(self, label):
        with pytest.raises(ConfigurationError, match=re.escape(f"'{label}'")):
            parse_label(label)

    def test_build_engine_types(self):
        config = build_oram_config(num_blocks=64, block_size_bytes=32)
        assert isinstance(build_engine("PathORAM", config), PathORAM)
        assert isinstance(build_engine("Insecure", config), InsecureMemory)
        engine = build_engine("Fat/S4", config)
        assert isinstance(engine, LAORAMClient)
        assert engine.describe() == "Fat/S4"

    def test_every_known_label_builds(self):
        config = build_oram_config(num_blocks=64, block_size_bytes=32)
        for label in PAPER_CONFIG_LABELS + EXTRA_CONFIG_LABELS:
            assert build_engine(label, config) is not None


class TestRunner:
    def test_run_configuration_counts_all_accesses(self):
        trace = make_trace("kaggle", 256, 512, seed=1)
        config = build_oram_config(num_blocks=256, block_size_bytes=64)
        result = run_configuration("Normal/S4", trace, config, seed=2)
        assert result.num_accesses == 512
        assert result.snapshot.logical_accesses == 512
        assert result.simulated_time_s > 0

    def test_stash_history_recording(self):
        trace = make_trace("permutation", 256, 256, seed=1)
        config = build_oram_config(num_blocks=256, block_size_bytes=64)
        result = run_configuration(
            "Normal/S4", trace, config, record_stash_history=True
        )
        assert len(result.stash_history) > 0

    def test_compare_configurations_covers_all_labels(self):
        trace = make_trace("gaussian", 256, 384, seed=3)
        config = build_oram_config(num_blocks=256, block_size_bytes=64)
        results = compare_configurations(("PathORAM", "Fat/S4"), trace, config)
        assert set(results) == {"PathORAM", "Fat/S4"}
        assert all(isinstance(r, ExperimentResult) for r in results.values())


class TestMetrics:
    def make_result(self, time_s, total_bytes, accesses=100):
        snapshot = TrafficSnapshot(
            logical_accesses=accesses,
            path_reads=accesses,
            path_writes=accesses,
            dummy_reads=10,
            buckets_read=0,
            buckets_written=0,
            bytes_read=total_bytes // 2,
            bytes_written=total_bytes // 2,
            stash_peak=0,
            background_evictions=0,
        )
        return ExperimentResult(
            label="x",
            dataset="d",
            num_accesses=accesses,
            snapshot=snapshot,
            simulated_time_s=time_s,
            server_memory_bytes=0,
        )

    def test_speedup_over(self):
        fast = self.make_result(1.0, 1000)
        slow = self.make_result(5.0, 1000)
        assert fast.speedup_over(slow) == pytest.approx(5.0)

    def test_traffic_reduction_over(self):
        lean = self.make_result(1.0, 1000)
        heavy = self.make_result(1.0, 4000)
        assert lean.traffic_reduction_over(heavy) == pytest.approx(4.0)

    def test_dummy_reads_per_access(self):
        result = self.make_result(1.0, 100, accesses=100)
        assert result.dummy_reads_per_access == pytest.approx(0.1)
