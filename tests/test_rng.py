"""Tests for the deterministic RNG helpers."""

import numpy as np

from repro.utils.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(42).integers(0, 1000, 10).tolist() == make_rng(42).integers(
            0, 1000, 10
        ).tolist()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1 << 30, 20)
        b = make_rng(2).integers(0, 1 << 30, 20)
        assert not np.array_equal(a, b)


class TestSpawnRngs:
    def test_spawn_count(self):
        assert len(spawn_rngs(7, 5)) == 5

    def test_spawned_streams_are_independent(self):
        rngs = spawn_rngs(7, 2)
        assert not np.array_equal(
            rngs[0].integers(0, 1 << 30, 50), rngs[1].integers(0, 1 << 30, 50)
        )

    def test_spawn_is_reproducible(self):
        first = [g.integers(0, 100, 5).tolist() for g in spawn_rngs(9, 3)]
        second = [g.integers(0, 100, 5).tolist() for g in spawn_rngs(9, 3)]
        assert first == second

