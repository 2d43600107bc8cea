"""Threat-model harness: adversarial observers and leakage analysis."""

from repro.attacks.observer import CuriousOSObserver, MemoryBusObserver
from repro.attacks.analysis import (
    CountAdvantage,
    LeakageReport,
    analyze_address_leakage,
    analyze_path_obliviousness,
    count_distinguisher,
    reads_per_request,
    recover_access_histogram,
)

__all__ = [
    "MemoryBusObserver",
    "CuriousOSObserver",
    "CountAdvantage",
    "LeakageReport",
    "analyze_address_leakage",
    "analyze_path_obliviousness",
    "count_distinguisher",
    "reads_per_request",
    "recover_access_histogram",
]
