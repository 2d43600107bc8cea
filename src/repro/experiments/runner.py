"""Drives engines over traces and collects :class:`ExperimentResult` records."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.datasets.base import AccessTrace
from repro.experiments.configs import build_engine
from repro.experiments.metrics import ExperimentResult
from repro.memory.accounting import TrafficCounter
from repro.oram.base import ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy


def run_engine_on_trace(
    engine: ObliviousMemory,
    trace: AccessTrace,
    label: str,
    record_stash_history: bool = False,
) -> ExperimentResult:
    """Execute every access of ``trace`` on ``engine`` and summarise the run.

    The trace is known in advance, so it is replayed with ``run_trace``:
    LAORAM clients look ahead (preprocessing, trusted placement, superblock
    bins), array PathORAM runs its bin kernel, and everything else takes
    one access per element.
    """
    if record_stash_history:
        engine.counter.record_stash_history = True
    engine.run_trace(trace.addresses)
    snapshot = engine.statistics
    history = tuple(engine.counter.stash_history) if record_stash_history else ()
    return ExperimentResult(
        label=label,
        dataset=trace.name,
        num_accesses=len(trace),
        snapshot=snapshot,
        simulated_time_s=engine.simulated_time_s,
        server_memory_bytes=engine.server_memory_bytes,
        stash_history=history,
    )


def run_configuration(
    label: str,
    trace: AccessTrace,
    oram_config: ORAMConfig,
    eviction: Optional[EvictionPolicy] = None,
    seed: Optional[int] = None,
    record_stash_history: bool = False,
    observer=None,
) -> ExperimentResult:
    """Build the engine named ``label`` and run it over ``trace``."""
    engine = build_engine(
        label,
        oram_config,
        eviction=eviction,
        counter=TrafficCounter(),
        observer=observer,
        seed=seed,
    )
    return run_engine_on_trace(
        engine, trace, label, record_stash_history=record_stash_history
    )


def compare_configurations(
    labels: Sequence[str],
    trace: AccessTrace,
    oram_config: ORAMConfig,
    eviction: Optional[EvictionPolicy] = None,
    base_seed: int = 0,
) -> dict[str, ExperimentResult]:
    """Run every labelled configuration over the same trace.

    Each configuration gets its own seed offset so path randomisation is
    independent across engines while staying reproducible run to run.
    """
    results: dict[str, ExperimentResult] = {}
    for offset, label in enumerate(labels):
        results[label] = run_configuration(
            label,
            trace,
            oram_config,
            eviction=eviction,
            seed=base_seed + offset,
        )
    return results
