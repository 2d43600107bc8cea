"""Experiment scale presets.

The figure and table harness replays every configuration on its engine
(:class:`~repro.experiments.matrix.ReplayMatrix`).  The presets stop well
short of the paper's embedding tables (8M-16M entries, up to 24 GB of tree)
so that a whole figure sweep takes seconds: the relative behaviour the paper
reports — who wins, where the superblock-size sweet spot sits, how much the
fat tree helps — is governed by bucket occupancy and superblock size rather
than by the absolute tree height, so reduced scales preserve the shape of
the results.  Table I (pure arithmetic) always uses the paper's full sizes.
A scale is not bound to the presets: ``ExperimentScale("2^20", 1 << 20,
20_000, block_size_bytes=64)`` replays the recursion table at the
production position-map geometry (``docs/recursive_position_map.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ExperimentScale:
    """Size parameters of a run of the evaluation harness.

    Attributes:
        name: Human-readable preset name.
        num_blocks: Embedding rows in the protected table.
        num_accesses: Length of the access trace driven through each engine.
        block_size_bytes: Row payload size.
    """

    name: str
    num_blocks: int
    num_accesses: int
    block_size_bytes: int = 128

    def __post_init__(self) -> None:
        if self.num_blocks < 2:
            raise ConfigurationError("num_blocks must be >= 2")
        if self.num_accesses < 1:
            raise ConfigurationError("num_accesses must be >= 1")
        if self.block_size_bytes < 1:
            raise ConfigurationError("block_size_bytes must be >= 1")

    @property
    def secondary_blocks(self) -> int:
        """Table size of the "16M" variants: the paper evaluates the
        permutation and Gaussian streams at two sizes, here twice the base."""
        return self.num_blocks * 2


#: Fast preset used by the test suite.
TINY = ExperimentScale(name="tiny", num_blocks=1 << 10, num_accesses=2_048)

#: Default preset of every figure and table runner and of the CLI.
SMALL = ExperimentScale(name="small", num_blocks=1 << 12, num_accesses=8_192)

#: Larger preset for more faithful (slower) runs.
MEDIUM = ExperimentScale(name="medium", num_blocks=1 << 14, num_accesses=24_576)

#: The largest preset (not a ceiling: the array engines replay far larger tables).
LARGE = ExperimentScale(name="large", num_blocks=1 << 16, num_accesses=65_536)

_PRESETS = {scale.name: scale for scale in (TINY, SMALL, MEDIUM, LARGE)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a preset by name (``tiny``, ``small``, ``medium``, ``large``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale '{name}'; available: {', '.join(sorted(_PRESETS))}"
        ) from None
