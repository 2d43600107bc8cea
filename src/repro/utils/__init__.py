"""Shared utilities: tree index math, RNG helpers, statistics and units."""

from repro.utils.bits import num_leaves, num_nodes, required_depth
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import (
    chi_square_uniformity,
    empirical_entropy,
    mutual_information,
)
from repro.utils.units import (
    GiB,
    KiB,
    MiB,
    format_bytes,
    format_duration,
)

__all__ = [
    "num_leaves",
    "num_nodes",
    "required_depth",
    "make_rng",
    "spawn_rngs",
    "chi_square_uniformity",
    "empirical_entropy",
    "mutual_information",
    "GiB",
    "KiB",
    "MiB",
    "format_bytes",
    "format_duration",
]
