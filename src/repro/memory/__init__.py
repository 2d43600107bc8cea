"""Server-memory substrate: timing models and accounting."""

from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel
from repro.memory.timing import TimingModel

__all__ = [
    "DRAMModel",
    "InterconnectModel",
    "TimingModel",
    "TrafficCounter",
    "TrafficSnapshot",
]
