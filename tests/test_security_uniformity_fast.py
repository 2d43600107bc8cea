"""Access-pattern uniformity at paper scale, on the fast engines.

``tests/test_security_uniformity.py`` checks the per-object engines on a
256-block tree; this suite re-runs the same adversary at the embedding-table
sizes the paper evaluates (2^17 – 2^20 blocks) where only the vectorized
engines are fast enough, and adds plan-free grouped reads to the matrix
(``Normal/S<k>.access_many`` with no plan installed): a bin amortises path
reads across ``k`` accesses, and the bin boundary must not correlate the
observable leaf stream.

At these tree sizes there are far more leaves than observations, so the raw
chi-square has no power; observed paths are coarsened onto 64 equal leaf
ranges (powers of two divide evenly) and uniformity is tested there.
Independence is checked as mutual information between 8-bin coarsened
addresses and paths, the same statistic ``analyze_path_obliviousness`` uses.
"""

import numpy as np
import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.datasets.zipf import ZipfTraceGenerator
from repro.experiments.configs import build_engine, build_oram_config
from repro.utils.stats import chi_square_uniformity, mutual_information

NUM_ACCESSES = 4_000
COARSE_BINS = 64
ALPHA = 0.001


def coarsen(values: np.ndarray, domain: int, bins: int) -> np.ndarray:
    """Map integers in [0, domain) onto ``bins`` equal ranges."""
    return (np.asarray(values, dtype=np.int64) * bins) // domain


def observed_paths(label: str, num_blocks: int, trace, plan_free: bool = False):
    """Leaf stream of ``trace`` replayed, or served plan-free in bins."""
    observer = MemoryBusObserver()
    config = build_oram_config(num_blocks=num_blocks, seed=7)
    engine = build_engine(label, config, fast=True, observer=observer)
    if plan_free:
        engine.access_many(trace)
    else:
        engine.run_trace(trace)
    # LAORAM's bins dedup shared paths, so the observation stream can be
    # several times shorter than the trace; it must still be large enough
    # for a powered 64-bin chi-square (>= ~8 expected per bin).
    assert len(observer.observed_paths) >= 500
    return np.asarray(observer.observed_paths, dtype=np.int64), config.num_leaves


def make_trace(num_blocks: int, seed: int = 3) -> np.ndarray:
    return ZipfTraceGenerator(num_blocks, exponent=1.2, seed=seed).generate(
        NUM_ACCESSES
    ).addresses


class TestFastEngineUniformity:
    """Every fast family's leaf stream is uniform at 2^17 blocks."""

    @pytest.mark.parametrize(
        "label",
        ["PathORAM", "Normal/S4", "RingORAM", "PrORAM-dynamic/S2"],
    )
    def test_paths_uniform_at_scale(self, label):
        num_blocks = 1 << 17
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(label, num_blocks, trace)
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)


class TestBatchedAccessUniformity:
    """Grouped reads leak nothing the per-access protocol doesn't."""

    @pytest.mark.parametrize("num_blocks", [1 << 17, 1 << 20])
    def test_batched_pathoram_paths_uniform(self, num_blocks):
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(
            "Normal/S64", num_blocks, trace, plan_free=True
        )
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)

    def test_laoram_paths_uniform_at_paper_scale(self):
        num_blocks = 1 << 20
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths("Normal/S4", num_blocks, trace)
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)

    def test_batched_paths_independent_of_addresses(self):
        # Mutual information between coarsened addresses and the coarsened
        # observed leaves; an oblivious engine drives this to ~0 (the 0.25
        # threshold matches OblivionessReport.looks_oblivious).
        num_blocks = 1 << 17
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(
            "Normal/S64", num_blocks, trace, plan_free=True
        )
        length = min(len(trace), paths.size)
        info = mutual_information(
            coarsen(trace[:length], num_blocks, 8).tolist(),
            coarsen(paths[:length], num_leaves, 8).tolist(),
        )
        assert info < 0.25

    def test_batch_boundary_does_not_skew_leaf_stream(self):
        # Same trace, different bin sizes: each one's stream must be
        # uniform on its own (the adversary knows the superblock size).
        num_blocks = 1 << 17
        trace = make_trace(num_blocks, seed=13)
        for batch_size in (8, 64):
            paths, num_leaves = observed_paths(
                f"Normal/S{batch_size}", num_blocks, trace, plan_free=True
            )
            coarse = coarsen(paths, num_leaves, COARSE_BINS)
            result = chi_square_uniformity(coarse, COARSE_BINS)
            assert not result.rejects_uniformity(alpha=ALPHA)
