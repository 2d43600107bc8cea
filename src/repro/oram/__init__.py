"""ORAM substrates: PathORAM and the insecure baseline.

Every tree-based scheme runs on :class:`PathORAM`:
:class:`ArrayTreeStorage` slot arrays plus an :class:`ArrayStash` (one C
``id -> leaf`` table), every access on one kernel — PathORAM here, and
LAORAM's client, its subclass, in :mod:`repro.core`.
"""

from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig, FatTreePolicy
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM
from repro.oram.position_map import PositionMap
from repro.oram.stash import ArrayStash
from repro.oram.tree import ArrayTreeStorage

__all__ = [
    "AccessOp",
    "ObliviousMemory",
    "ORAMConfig",
    "FatTreePolicy",
    "InsecureMemory",
    "PathORAM",
    "PositionMap",
    "ArrayStash",
    "ArrayTreeStorage",
]
