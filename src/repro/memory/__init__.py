"""Server-memory substrate: blocks, timing models and accounting."""

from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.block import Block
from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel
from repro.memory.timing import TimingModel

__all__ = [
    "Block",
    "DRAMModel",
    "InterconnectModel",
    "TimingModel",
    "TrafficCounter",
    "TrafficSnapshot",
]
