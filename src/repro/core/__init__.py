"""LAORAM core: look-ahead superblock formation, preprocessor and client.

:class:`LAORAMClient` runs the protocol on the PathORAM engine's one
kernel; :class:`LookaheadClientMixin` holds its plan management and the
one way a request becomes superblock bins.
"""

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient, LookaheadClientMixin
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan

__all__ = [
    "LAORAMConfig",
    "LAORAMClient",
    "LookaheadClientMixin",
    "Preprocessor",
    "LookaheadPlan",
]
