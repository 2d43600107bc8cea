"""Reproduction checks: every table/figure module produces the paper's shape.

Most cases run at a tiny scale; a shape that only appears once the stash
fills (dummy reads, fat over normal at S8) runs at the two ``_BENCH`` scales.
Everything runs on the array engines, so the whole file takes seconds.
"""

import numpy as np
import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.datasets.registry import make_trace
from repro.experiments.configs import build_engine, build_oram_config
from repro.experiments.figure2 import run_figure2
from repro.experiments.matrix import (
    SUBFIGURES,
    Cell,
    ReplayMatrix,
    theoretical_traffic_bound,
)
from repro.experiments.scale import ExperimentScale, TINY
from repro.experiments.table1 import TABLE1_WORKLOADS, run_table1
from repro.utils.stats import chi_square_uniformity
from repro.utils.units import GiB

_FAST = ExperimentScale(name="test", num_blocks=512, num_accesses=2048)
_BENCH = ExperimentScale(name="bench", num_blocks=1 << 12, num_accesses=8_192)
_BENCH_SMALL = ExperimentScale(name="bench-small", num_blocks=1 << 11, num_accesses=4_096)


class TestFigure2:
    def test_random_bulk_plus_hot_band(self):
        result = run_figure2(num_accesses=5000, num_blocks=200_000, seed=1)
        assert result.looks_random_with_hot_band
        assert len(result.indices) == 5000


class TestFigure7:
    def test_all_subfigures_are_defined(self):
        assert set(SUBFIGURES) == {"7a", "7b", "7c", "7d", "7e", "7f"}

    def test_kaggle_laoram_beats_pathoram(self):
        speedups = ReplayMatrix(_FAST).figure7("7e", seed=2)
        assert speedups["PathORAM"] == pytest.approx(1.0)
        assert speedups["Normal/S4"] > 1.5
        assert max(speedups.values()) > 2.0

    def test_xnli_shows_largest_speedups(self):
        kaggle = ReplayMatrix(_FAST).figure7("7e", seed=3)
        xnli = ReplayMatrix(_FAST).figure7("7f", seed=3)
        assert max(xnli.values()) >= max(kaggle.values()) * 0.8

    def test_permutation_speedups_are_modest(self):
        """The worst-case dataset gains less than the ML workloads (Fig. 7a vs 7e)."""
        permutation = ReplayMatrix(_FAST).figure7("7a", seed=4)
        kaggle = ReplayMatrix(_FAST).figure7("7e", seed=4)
        assert permutation["Normal/S8"] <= kaggle["Normal/S8"] * 1.2

    @pytest.mark.parametrize("subfigure", sorted(SUBFIGURES))
    def test_shape_once_the_stash_fills(self, subfigure):
        ml_workload = subfigure in ("7e", "7f")
        scale = _BENCH if ml_workload else _BENCH_SMALL
        speedups = ReplayMatrix(scale).figure7(subfigure, seed=1)
        assert speedups["PathORAM"] == pytest.approx(1.0)
        assert max(speedups.values()) > (2.5 if ml_workload else 1.2)
        if ml_workload:
            assert speedups["Fat/S8"] > speedups["Fat/S2"]
        if subfigure in ("7a", "7b"):
            # Worst-case permutation: the fat tree rescues the large superblocks.
            assert speedups["Fat/S8"] >= speedups["Normal/S8"] * 0.9

    def test_unknown_subfigure_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ReplayMatrix(TINY).figure7("7z")


class TestFigure8:
    def test_normal_tree_stash_grows_faster_than_fat(self):
        histories = ReplayMatrix(_FAST).figure8(seed=5)
        assert histories["Normal-4"][-1] > histories["Fat-4"][-1]
        assert histories["Normal-8"][-1] > histories["Fat-8"][-1]

    def test_normal_tree_stash_keeps_growing(self):
        """Visible only once the tree is under pressure (2^12 blocks)."""
        history = ReplayMatrix(_BENCH).figure8(seed=2)["Normal-4"]
        assert history[-1] >= history[len(history) // 4]

    def test_histories_are_recorded_per_access(self):
        scale = ExperimentScale(name="t", num_blocks=256, num_accesses=512)
        histories = ReplayMatrix(scale).figure8()
        for history in histories.values():
            assert len(history) > 0


class TestFigure9:
    def test_normal_s2_reaches_its_theoretical_bound(self):
        """Paper: Normal/S2's measured reduction matches the bound of 2x."""
        reduction, bound = ReplayMatrix(_FAST).figure9(seed=6)["Normal/S2"]
        assert bound == 2.0
        assert reduction == pytest.approx(2.0, rel=0.15)

    def test_reductions_respect_bounds(self):
        figure9 = ReplayMatrix(_FAST).figure9(seed=6)
        for reduction, bound in figure9.values():
            assert reduction <= bound * 1.10
        reductions = {label: reduction for label, (reduction, _) in figure9.items()}
        assert reductions["Normal/S4"] > reductions["Normal/S2"]
        # The fat tree's paths carry ~50% more bytes.
        assert reductions["Fat/S2"] < reductions["Normal/S2"]

    def test_theoretical_bounds(self):
        assert theoretical_traffic_bound("Normal/S4") == pytest.approx(4.0)
        assert theoretical_traffic_bound("Fat/S4", bucket_size=4) == pytest.approx(
            2 * 5 / 13 * 4
        )
        assert theoretical_traffic_bound("PathORAM") == 1.0


class TestTable1:
    def test_paper_workloads_present(self):
        assert set(TABLE1_WORKLOADS) == {"8M", "16M", "Kaggle", "XNLI"}

    def test_8m_row_matches_paper(self):
        rows = {row.workload: row for row in run_table1()}
        row = rows["8M"]
        assert row.insecure_bytes == 1 * GiB
        assert row.pathoram_bytes == pytest.approx(8 * GiB, rel=1e-6)
        assert row.laoram_bytes == row.pathoram_bytes
        assert row.fat_overhead_vs_normal == pytest.approx(1.25, rel=0.01)

    def test_kaggle_row_matches_paper(self):
        rows = {row.workload: row for row in run_table1()}
        row = rows["Kaggle"]
        assert row.insecure_bytes == pytest.approx(1.2 * GiB, rel=0.05)
        assert row.pathoram_bytes == pytest.approx(16 * GiB, rel=1e-6)

    def test_pathoram_overhead_is_about_8x(self):
        for row in run_table1():
            assert row.pathoram_overhead >= 6.0

    def test_16m_row_and_fat_overhead_on_every_row(self):
        rows = run_table1()
        by_name = {row.workload: row for row in rows}
        assert by_name["16M"].pathoram_bytes == pytest.approx(16 * GiB, rel=1e-6)
        for row in rows:
            assert row.laoram_bytes == row.pathoram_bytes
            assert 1.2 < row.fat_overhead_vs_normal < 1.3


class TestTable2:
    def test_fat_tree_reduces_dummy_reads_on_permutation(self):
        table = ReplayMatrix(_FAST).table2(seed=7)
        normal = table["Normal/S8"]["permutation"]
        fat = table["Fat/S8"]["permutation"]
        assert fat <= normal

    def test_ml_workloads_have_fewer_dummy_reads_than_permutation(self):
        table = ReplayMatrix(_FAST).table2(seed=7)
        for config in ("Normal/S8", "Fat/S8"):
            assert table[config]["xnli"] <= table[config]["permutation"]

    def test_fat_never_needs_more_dummy_reads_than_normal(self):
        """At 2^11 blocks, where the normal tree does issue dummy reads."""
        table = ReplayMatrix(_BENCH_SMALL).table2(seed=4)
        assert table["Normal/S8"]["permutation"] > 0.0
        for superblock in (4, 8):
            for dataset in ("permutation", "gaussian", "kaggle", "xnli"):
                fat = table[f"Fat/S{superblock}"][dataset]
                assert fat <= table[f"Normal/S{superblock}"][dataset]
        # Larger superblocks put more pressure on the stash.
        assert table["Normal/S8"]["permutation"] >= table["Normal/S4"]["permutation"]

    def test_all_cells_are_present(self):
        table = ReplayMatrix(_FAST).table2(seed=7)
        assert list(table) == ["Fat/S8", "Fat/S4", "Normal/S8", "Normal/S4"]
        for row in table.values():
            assert list(row) == ["permutation", "gaussian", "kaggle", "xnli"]
            assert all(value >= 0.0 for value in row.values())


class TestMemoryNeutral:
    def test_fat_tree_uses_less_memory_than_enlarged_normal_tree(self):
        (normal_bytes, _), (fat_bytes, _) = ReplayMatrix(_FAST).memory_neutral(seed=8).values()
        assert fat_bytes < normal_bytes
        assert 0.05 < 1.0 - fat_bytes / normal_bytes < 0.35

    def test_fat_tree_does_not_need_more_dummy_reads(self):
        (_, normal_dummy), (_, fat_dummy) = ReplayMatrix(_FAST).memory_neutral(seed=8).values()
        assert fat_dummy <= normal_dummy


class TestAblations:
    """Design-choice sweeps beyond the paper's grid, at 2^11 blocks / 4,096 accesses."""

    scale = _BENCH_SMALL

    def oram_config(self, seed):
        return build_oram_config(
            num_blocks=self.scale.num_blocks,
            block_size_bytes=self.scale.block_size_bytes,
            seed=seed,
        )

    def trace(self, dataset, seed):
        return make_trace(dataset, self.scale.num_blocks, self.scale.num_accesses, seed=seed)

    def record(self, label, dataset, seed, oram=None, **cell):
        oram = oram if oram is not None else self.oram_config(seed)
        return ReplayMatrix().record(
            Cell(label, dataset, self.scale.num_accesses, seed, oram, **cell)
        )

    def test_eviction_threshold_trades_dummy_reads_for_stash(self):
        """Section VIII-E fixes 500/50; this is the trade-off those numbers buy."""
        snapshots = [
            self.record(
                "Normal/S8",
                "permutation",
                8,
                self.oram_config(8).with_overrides(
                    eviction_threshold=threshold, eviction_target=max(5, threshold // 10)
                ),
            ).snapshot
            for threshold in (50, 150, 400)
        ]
        assert snapshots[0].dummy_reads_per_access >= snapshots[-1].dummy_reads_per_access
        assert snapshots[0].stash_peak <= snapshots[-1].stash_peak + 1

    def test_fat_tree_growth_schedules(self):
        """Section V: extra slots near the root buy stash headroom at bounded cost."""
        base = self.oram_config(11).with_overrides(background_eviction=False)
        uniform, linear, increment = (
            self.record(label, "permutation", 11, config)
            for label, config in (
                ("Normal/S8", base),
                ("Fat/S8", base.with_overrides(fat_tree_growth="linear")),
                ("Fat/S8", base.with_overrides(fat_tree_growth="increment")),
            )
        )
        for fat in (linear, increment):
            assert fat.snapshot.stash_peak <= uniform.snapshot.stash_peak
            assert (
                uniform.server_memory_bytes
                < fat.server_memory_bytes
                < uniform.server_memory_bytes * 1.6
            )

    def test_more_lookahead_never_hurts(self):
        """Section IV-B: the window must hold a block's next occurrence."""
        trace = self.trace("xnli", 9)
        baseline = self.record("PathORAM", "xnli", 9)
        speedups = {}
        for window in (64, 512, None):  # None = the whole trace
            # build_engine has no window argument: the one hand-built client.
            client = LAORAMClient(
                LAORAMConfig(
                    oram=self.oram_config(10), superblock_size=4, lookahead_accesses=window
                )
            )
            client.run_trace(trace.addresses)
            speedups[window] = baseline.simulated_time_s / client.simulated_time_s
        assert speedups[None] >= speedups[512] * 0.95
        assert speedups[512] >= speedups[64] * 0.95
        assert speedups[None] > 1.5

    @pytest.mark.parametrize("tree", ["Normal", "Fat"])
    def test_superblock_size_sweep(self, tree):
        """S2-S16: speedup grows with diminishing returns, every leaf stream uniform."""
        trace = self.trace("kaggle", 7)
        oram_config = self.oram_config(7)
        fold = 5  # 2048 leaves -> 64 cells, so 256 observed paths still fill them
        times = {}
        for size in (1, 2, 4, 8, 16):
            observer = MemoryBusObserver()
            label = "PathORAM" if size == 1 else f"{tree}/S{size}"
            engine = build_engine(
                label, oram_config.with_overrides(seed=7 + size), observer=observer
            )
            engine.run_trace(trace.addresses)
            times[size] = engine.simulated_time_s
            uniformity = chi_square_uniformity(
                np.asarray(observer.observed_paths) >> fold, oram_config.num_leaves >> fold
            )
            assert not uniformity.rejects_uniformity(alpha=0.001), label
        speedups = {size: times[1] / time_s for size, time_s in times.items()}
        assert speedups[4] > speedups[2] > 1.0
        assert speedups[16] / speedups[8] < speedups[4] / speedups[2]
