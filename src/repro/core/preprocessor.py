"""The LAORAM preprocessor: dataset scan and superblock path generation.

The preprocessor is the trusted component (Section IV-B) that looks at
upcoming training samples before they are trained on.  Its job has two steps:

1. **Dataset scan** — walk the upcoming access stream and place every run of
   ``superblock_size`` consecutive accesses into a superblock bin;
2. **Superblock path generation** — draw one uniformly random path per bin
   and emit the (superblock, future path) metadata for the trainer GPU.

The preprocessor only ever touches training samples (which are encrypted at
rest and processed inside the trusted client), so its own memory accesses are
not part of the threat surface — see Section VI-C of the paper.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.core.superblock import LookaheadPlan, num_bins
from repro.utils.rng import make_rng


class Preprocessor:
    """Builds lookahead plans from future access streams.

    ``draw_leaves(count)`` returns the next ``count`` uniform leaves in
    ``[0, num_leaves)`` as an int64 array.  A LAORAM client passes its
    engine's :meth:`~repro.oram.path_oram.PathORAM._draw_leaves`, so
    the bin paths come from the one stream its remaps and dummy reads draw
    from; without it the preprocessor draws from its own generator, seeded
    with ``seed``.
    """

    def __init__(
        self,
        superblock_size: int,
        num_leaves: int,
        draw_leaves: Optional[Callable[[int], np.ndarray]] = None,
        seed: int = 0,
    ):
        if superblock_size < 1:
            raise ConfigurationError("superblock_size must be >= 1")
        if num_leaves < 2:
            raise ConfigurationError("num_leaves must be >= 2")
        self.superblock_size = superblock_size
        self.num_leaves = num_leaves
        if draw_leaves is None:
            rng = make_rng(seed)

            def draw_leaves(count: int) -> np.ndarray:
                return rng.integers(0, num_leaves, size=count, dtype=np.int64)

        self._draw_leaves = draw_leaves

    # ------------------------------------------------------------------
    def build_plan(
        self,
        addresses: Sequence[int] | np.ndarray,
        start_index: int = 0,
    ) -> LookaheadPlan:
        """Scan ``addresses`` and return the lookahead plan for that window.

        ``start_index`` is the trace position of ``addresses[0]``; it lets a
        caller preprocess the trace in windows while keeping globally
        consistent occurrence indices and bin boundaries (a window starting
        off a superblock boundary opens with a short bin).
        """
        addr = self._validate(addresses)
        leaves = self._draw_leaves(num_bins(addr.size, self.superblock_size, start_index))
        return LookaheadPlan(
            addr,
            leaves,
            superblock_size=self.superblock_size,
            num_leaves=self.num_leaves,
            start_index=start_index,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(addresses: Sequence[int] | np.ndarray) -> np.ndarray:
        addr = np.asarray(addresses, dtype=np.int64)
        if addr.ndim != 1:
            raise TraceError("address stream must be one-dimensional")
        if addr.size == 0:
            raise TraceError("address stream must be non-empty")
        if addr.min() < 0:
            raise TraceError("address stream contains negative block ids")
        return addr
