"""Tests for the experiment harness (configs, replay matrix, scales, metrics)."""

import re
from dataclasses import replace

import pytest

from repro.cli import build_parser, run_command
from repro.datasets.registry import make_trace
from repro.exceptions import ConfigurationError
from repro.experiments.configs import (
    PAPER_CONFIG_LABELS,
    build_engine,
    build_oram_config,
    parse_label,
)
from repro.experiments.matrix import Cell, ExperimentResult, ReplayMatrix
from repro.experiments.scale import TINY, ExperimentScale, get_scale
from repro.memory.accounting import TrafficSnapshot
from repro.core.laoram import LAORAMClient
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM
from repro.oram.position_map import PositionMap


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
        for label in PAPER_CONFIG_LABELS + ("Insecure",):
            assert build_engine(label, config) is not None


class TestReplayMatrix:
    def test_a_cell_counts_all_accesses(self):
        config = build_oram_config(num_blocks=256, block_size_bytes=64, seed=2)
        result = ReplayMatrix().record(Cell("Normal/S4", "kaggle", 512, 1, config))
        assert result.num_accesses == 512
        assert result.snapshot.logical_accesses == 512
        assert result.simulated_time_s > 0

    def test_stash_history_recording(self):
        config = build_oram_config(num_blocks=256, block_size_bytes=64)
        result = ReplayMatrix().record(
            Cell("Normal/S4", "permutation", 256, 1, config, record_stash_history=True)
        )
        assert len(result.stash_history) > 0

    def test_figure7_covers_all_labels(self):
        scale = ExperimentScale(name="t", num_blocks=256, num_accesses=384)
        speedups = ReplayMatrix(scale).figure7("7c", seed=3)
        assert tuple(speedups) == PAPER_CONFIG_LABELS
        assert all(isinstance(s, float) for s in speedups.values())


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
            client_memory_bytes=0,
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


def _count_replays(monkeypatch) -> tuple[list, list]:
    """Wrap the matrix's cell runner and trace builder; returns their calls."""
    from repro.experiments import matrix

    replays, traces = [], []
    run, build = matrix.replay, matrix.make_trace
    monkeypatch.setattr(
        matrix, "replay", lambda cell, trace: replays.append(cell) or run(cell, trace)
    )
    monkeypatch.setattr(matrix, "make_trace", lambda *key: traces.append(key) or build(*key))
    return replays, traces


class TestCellKey:
    """A cell names its replay completely: the matrix replays it once, and
    a cell one key field apart is a replay of its own."""

    BASE = Cell(
        "Normal/S4",
        "permutation",
        512,
        1,
        build_oram_config(num_blocks=256, block_size_bytes=64, seed=2).with_overrides(
            eviction_threshold=20, eviction_target=5
        ),
    )

    def test_the_record_is_a_fresh_replay_of_the_cell(self):
        cell = replace(self.BASE, record_stash_history=True)
        record = ReplayMatrix().record(cell)
        engine = build_engine(cell.label, cell.oram)
        engine.counter.record_stash_history = True
        engine.run_trace(make_trace("permutation", 256, 512, seed=1).addresses)
        assert record == ExperimentResult(
            label="Normal/S4",
            dataset="permutation",
            num_accesses=512,
            snapshot=engine.statistics,
            simulated_time_s=engine.simulated_time_s,
            server_memory_bytes=engine.server_memory_bytes,
            client_memory_bytes=engine.client_memory_bytes(),
            stash_history=tuple(engine.counter.stash_history),
        )
        assert record.snapshot.dummy_reads > 0 and len(record.stash_history) > 0

    def test_one_field_apart_is_another_replay(self, monkeypatch):
        replays, traces = _count_replays(monkeypatch)
        base = self.BASE
        cells = [
            base,
            replace(base, oram=base.oram.with_overrides(background_eviction=False)),
            replace(base, record_stash_history=True),
            replace(base, oram=base.oram.with_overrides(bucket_size=5)),
            replace(base, oram=base.oram.with_overrides(seed=3)),
            replace(base, trace_seed=2),
        ]
        matrix = ReplayMatrix()
        records = [matrix.record(cell) for cell in cells]
        assert [matrix.record(cell) for cell in reversed(cells)] == records[::-1]
        assert replays == cells
        # Only the trace seed asks for a second trace.
        assert traces == [("permutation", 256, 512, 1), ("permutation", 256, 512, 2)]
        # Where a field changes what the engine does, the record shows it.
        assert records[1].snapshot.dummy_reads == 0 < records[0].snapshot.dummy_reads
        assert records[2].stash_history and not records[0].stash_history
        assert records[3].server_memory_bytes > records[0].server_memory_bytes


class TestProjections:
    def test_cli_all_replays_each_cell_once(self, monkeypatch):
        replays, _ = _count_replays(monkeypatch)
        run_command(build_parser().parse_args(["all", "--scale", "tiny"]))
        # Fig. 7e 7, Fig. 8 4, Table II 16, memory-neutral 2; Fig. 9 reads
        # Fig. 7e's cells.
        assert len(replays) == 29
        assert len(set(replays)) == 29

    def test_cli_recursion_replays_four_cells_once(self, monkeypatch):
        replays, traces = _count_replays(monkeypatch)
        run_command(build_parser().parse_args(["recursion", "--scale", "tiny"]))
        # Two rows of two cells, all over one Zipf trace.
        assert len(replays) == len(set(replays)) == 4
        assert traces == [("zipf", TINY.num_blocks, TINY.num_accesses, 0)]
        # A repeated ask of one matrix replays nothing.
        matrix = ReplayMatrix(TINY)
        first = matrix.recursion()
        del replays[:]
        assert matrix.recursion() == first and replays == []

    @pytest.mark.parametrize("scale", ["tiny", "small", "medium", "large"])
    def test_every_preset_builds_a_recursion_level(self, scale):
        cells = ReplayMatrix(get_scale(scale))._recursion_cells(0)
        for dense, recursive in cells.values():
            assert replace(dense, oram=dense.oram.with_overrides(recursive_posmap=True)) == recursive
            posmap = build_engine(recursive.label, recursive.oram).position_map
            sizes = PositionMap.level_sizes(
                recursive.oram.num_blocks, recursive.oram.posmap_positions_per_block,
                recursive.oram.posmap_cutoff_bytes,
            )
            assert len(sizes) >= 1
            assert [level.num_blocks for level in posmap._levels] == sizes

    @pytest.mark.parametrize("num_blocks, sizes", [(1 << 20, [16384]), (1 << 23, [131072, 2048])])
    def test_paper_scale_cells_take_the_production_geometry(self, num_blocks, sizes):
        matrix = ReplayMatrix(ExperimentScale("paper", num_blocks, 1))
        for _, recursive in matrix._recursion_cells(0).values():
            oram = recursive.oram
            assert oram.posmap_cutoff_bytes == 1 << 16
            assert PositionMap.level_sizes(
                num_blocks, oram.posmap_positions_per_block, oram.posmap_cutoff_bytes
            ) == sizes
