"""Server-memory substrate: blocks, timing models and accounting."""

from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.block import Block, DUMMY_BLOCK_ID
from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel
from repro.memory.timing import TimingModel

__all__ = [
    "Block",
    "DUMMY_BLOCK_ID",
    "DRAMModel",
    "InterconnectModel",
    "TimingModel",
    "TrafficCounter",
    "TrafficSnapshot",
]
