"""Deterministic random number generation helpers.

Every stochastic component of the simulator (path assignment, dataset
generation, model initialisation) takes an explicit seed or an
``numpy.random.Generator``.  These helpers centralise how generators are
constructed so that experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` yields a non-deterministic generator, which is only appropriate
    for interactive exploration; experiments should always pass a seed.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
