"""LAORAM core: look-ahead superblock formation, preprocessor and client.

:class:`LAORAMClient` is the PathORAM engine plus the lookahead plan and
the one way a request becomes superblock bins, all on the engine's one
kernel.
"""

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan

__all__ = [
    "LAORAMConfig",
    "LAORAMClient",
    "Preprocessor",
    "LookaheadPlan",
]
