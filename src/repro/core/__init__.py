"""LAORAM core: look-ahead superblock formation, preprocessor and clients.

Two interchangeable clients execute the protocol: the per-object reference
:class:`LAORAMClient` and the array-backed :class:`FastLAORAMClient`, which
makes identical protocol decisions (and therefore identical traffic
counters for a fixed seed) over vectorized storage.
"""

from repro.core.config import LAORAMConfig
from repro.core.fast_laoram import FastLAORAMClient
from repro.core.laoram import LAORAMClient, LookaheadClientMixin
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan

__all__ = [
    "LAORAMConfig",
    "LAORAMClient",
    "FastLAORAMClient",
    "LookaheadClientMixin",
    "Preprocessor",
    "LookaheadPlan",
]
