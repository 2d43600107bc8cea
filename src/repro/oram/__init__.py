"""ORAM substrates: PathORAM and the insecure baseline.

Every tree-based scheme ships in two decision-identical flavours built on
the shared :mod:`repro.oram.engine` core: a per-object reference (dict
stash, Block objects) and a vectorized array twin
(:class:`ArrayTreeStorage` slot arrays plus an :class:`ArrayStash`, one
``{id: leaf}`` dict) that produces bit-identical traffic counters for a fixed
seed — :class:`PathORAM`/:class:`ArrayPathORAM` here, and LAORAM's two
clients in :mod:`repro.core`.
"""

from repro.oram.array_path_oram import ArrayPathORAM
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig, FatTreePolicy
from repro.oram.engine import ArrayStorageEngine, ObjectStorageEngine, TreeORAMEngine
from repro.oram.eviction import EvictionPolicy
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM
from repro.oram.position_map import PositionMap
from repro.oram.stash import ArrayStash, Stash
from repro.oram.tree import ArrayTreeStorage, TreeStorage

__all__ = [
    "AccessOp",
    "ObliviousMemory",
    "ORAMConfig",
    "FatTreePolicy",
    "EvictionPolicy",
    "InsecureMemory",
    "TreeORAMEngine",
    "ObjectStorageEngine",
    "ArrayStorageEngine",
    "PathORAM",
    "ArrayPathORAM",
    "PositionMap",
    "Stash",
    "ArrayStash",
    "TreeStorage",
    "ArrayTreeStorage",
]
