"""Access traces: the address streams the ORAM engines are evaluated on.

An :class:`AccessTrace` is simply a sequence of embedding-table row indices in
the order the training process will touch them.  This is exactly the input
the LAORAM memory access engine consumes (Section VII-A: "Our system takes a
series of memory block addresses generated by a training data preprocessor as
inputs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import TraceError
from repro.utils.stats import gini_coefficient


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of an access trace."""

    num_accesses: int
    num_blocks: int
    num_unique_accessed: int
    duplicate_fraction: float
    hot_band_fraction: float
    gini: float


class AccessTrace:
    """A named stream of embedding-table accesses over ``num_blocks`` rows."""

    def __init__(self, name: str, num_blocks: int, addresses: np.ndarray):
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.ndim != 1:
            raise TraceError("addresses must be one-dimensional")
        if addresses.size == 0:
            raise TraceError("trace must contain at least one access")
        if num_blocks < 1:
            raise TraceError("num_blocks must be >= 1")
        if addresses.min() < 0 or addresses.max() >= num_blocks:
            raise TraceError("trace contains addresses outside [0, num_blocks)")
        self.name = name
        self.num_blocks = int(num_blocks)
        self.addresses = addresses

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.addresses.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(a) for a in self.addresses)

    def __getitem__(self, item):
        sliced = self.addresses[item]
        if np.isscalar(sliced) or sliced.ndim == 0:
            return int(sliced)
        return AccessTrace(self.name, self.num_blocks, sliced)

    def repeat(self, epochs: int) -> "AccessTrace":
        """The trace repeated ``epochs`` times (training over multiple epochs)."""
        if epochs < 1:
            raise TraceError("epochs must be >= 1")
        return AccessTrace(self.name, self.num_blocks, np.tile(self.addresses, epochs))

    # ------------------------------------------------------------------
    def statistics(self, hot_band_size: int = 1000) -> TraceStatistics:
        """Summary statistics, including the fraction of accesses that hit a
        small "hot band" of the most popular rows (Fig. 2's black band)."""
        counts = np.bincount(self.addresses, minlength=self.num_blocks)
        unique = int((counts > 0).sum())
        duplicates = self.addresses.size - unique
        top = np.sort(counts)[::-1][: min(hot_band_size, counts.size)]
        hot_fraction = float(top.sum() / self.addresses.size)
        return TraceStatistics(
            num_accesses=int(self.addresses.size),
            num_blocks=self.num_blocks,
            num_unique_accessed=unique,
            duplicate_fraction=duplicates / self.addresses.size,
            hot_band_fraction=hot_fraction,
            gini=gini_coefficient(counts),
        )
