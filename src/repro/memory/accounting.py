"""Traffic accounting for ORAM experiments.

Every ORAM implementation in this package reports its activity through a
:class:`TrafficCounter`.  The counters are what the paper's evaluation is
built on: path reads/writes, dummy (background-eviction) reads, bytes moved,
and stash occupancy over time (Fig. 8).  They are the only record of an
engine's traffic: simulated time is their price
(:meth:`~repro.memory.timing.TimingModel.elapsed_s`), so they count every
event that price needs — buckets touched on every tree, main and
recursive — and nothing keeps a second tally beside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable copy of a :class:`TrafficCounter` at a point in time."""

    logical_accesses: int
    path_reads: int
    path_writes: int
    dummy_reads: int
    buckets_read: int
    buckets_written: int
    bytes_read: int
    bytes_written: int
    stash_peak: int
    background_evictions: int
    # Recursive-position-map traffic is charged as its own category so the
    # main-tree counters above stay directly comparable between dense and
    # recursive configurations (the dense map moves no bytes at all).
    posmap_path_reads: int = 0
    posmap_path_writes: int = 0
    posmap_bytes_read: int = 0
    posmap_bytes_written: int = 0
    posmap_buckets_read: int = 0
    posmap_buckets_written: int = 0
    # Accesses (distinct ids of a bin) served from the stash without a read.
    stash_hits: int = 0

    @property
    def total_bytes(self) -> int:
        """Bytes moved in both directions."""
        return self.bytes_read + self.bytes_written

    @property
    def dummy_reads_per_access(self) -> float:
        """Average dummy reads per logical access (Table II metric)."""
        if self.logical_accesses == 0:
            return 0.0
        return self.dummy_reads / self.logical_accesses

    @property
    def posmap_total_bytes(self) -> int:
        """Position-map recursion bytes moved in both directions."""
        return self.posmap_bytes_read + self.posmap_bytes_written


def merge_snapshots(snapshots: "Iterable[TrafficSnapshot]") -> TrafficSnapshot:
    """Combine per-shard snapshots into one aggregate view.

    Additive counters sum; ``stash_peak`` takes the maximum because each
    shard owns an independent stash (the aggregate peak client memory is
    bounded by the sum, but the per-engine peak is what stash-overflow
    analyses care about).
    """
    merged = TrafficCounter()
    for snapshot in snapshots:
        for spec in fields(TrafficSnapshot):
            value = getattr(snapshot, spec.name)
            if spec.name == "stash_peak":
                merged.stash_peak = max(merged.stash_peak, value)
            else:
                setattr(merged, spec.name, getattr(merged, spec.name) + value)
    return merged.snapshot()


@dataclass
class TrafficCounter:
    """Mutable accumulator of ORAM traffic statistics.

    Events are recorded one by one (``record_*``) or folded in pre-aggregated
    (:meth:`add_bulk`, the array engines' trace kernel).  Integer addition is exact
    under any grouping, so both give bit-identical totals.
    """

    logical_accesses: int = 0
    path_reads: int = 0
    path_writes: int = 0
    dummy_reads: int = 0
    buckets_read: int = 0
    buckets_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    stash_peak: int = 0
    background_evictions: int = 0
    posmap_path_reads: int = 0
    posmap_path_writes: int = 0
    posmap_bytes_read: int = 0
    posmap_bytes_written: int = 0
    posmap_buckets_read: int = 0
    posmap_buckets_written: int = 0
    stash_hits: int = 0
    stash_history: list[int] = field(default_factory=list)
    record_stash_history: bool = False

    def record_logical_access(self, count: int = 1) -> None:
        """Register ``count`` logical (application-level) block accesses."""
        self.logical_accesses += count

    def record_path_read(self, num_buckets: int, num_bytes: int, dummy: bool = False) -> None:
        """Register one path read of ``num_buckets`` buckets / ``num_bytes`` bytes."""
        if dummy:
            self.dummy_reads += 1
        else:
            self.path_reads += 1
        self.buckets_read += num_buckets
        self.bytes_read += num_bytes

    def record_path_write(self, num_buckets: int, num_bytes: int) -> None:
        """Register one path write-back."""
        self.path_writes += 1
        self.buckets_written += num_buckets
        self.bytes_written += num_bytes

    def record_stash_hit(self, count: int = 1) -> None:
        """Register ``count`` accesses served from the stash without a read."""
        self.stash_hits += count

    def record_posmap_path_read(
        self, num_buckets: int, num_bytes: int, count: int = 1
    ) -> None:
        """Register ``count`` recursion-level path reads of the position map.

        Recursion traffic is its own category, charged by the map for its
        walks (``PositionMap.charge_walks``): the kernel's own counts are
        main-tree paths only.
        """
        self.posmap_path_reads += count
        self.posmap_buckets_read += count * num_buckets
        self.posmap_bytes_read += count * num_bytes

    def record_posmap_path_write(
        self, num_buckets: int, num_bytes: int, count: int = 1
    ) -> None:
        """Register ``count`` recursion-level path write-backs of the position map."""
        self.posmap_path_writes += count
        self.posmap_buckets_written += count * num_buckets
        self.posmap_bytes_written += count * num_bytes

    def record_background_eviction(self) -> None:
        """Register one background-eviction episode (may contain many dummy reads)."""
        self.background_evictions += 1

    def observe_stash(self, occupancy: int) -> None:
        """Track stash occupancy, updating the running peak and optional history."""
        if occupancy > self.stash_peak:
            self.stash_peak = occupancy
        if self.record_stash_history:
            self.stash_history.append(occupancy)

    def add_bulk(
        self,
        logical_accesses: int = 0,
        path_reads: int = 0,
        path_writes: int = 0,
        dummy_reads: int = 0,
        buckets_read: int = 0,
        buckets_written: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        stash_peak: int = 0,
        background_evictions: int = 0,
        stash_hits: int = 0,
    ) -> None:
        """Fold a batch of pre-aggregated counts in (the trace kernel).

        Additive counters sum; ``stash_peak`` max-merges.  The kernel
        accumulated these in plain Python ints, so the result is
        bit-identical to having recorded every event live.
        """
        self.logical_accesses += logical_accesses
        self.path_reads += path_reads
        self.path_writes += path_writes
        self.dummy_reads += dummy_reads
        self.buckets_read += buckets_read
        self.buckets_written += buckets_written
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        if stash_peak > self.stash_peak:
            self.stash_peak = stash_peak
        self.background_evictions += background_evictions
        self.stash_hits += stash_hits

    def snapshot(self) -> TrafficSnapshot:
        """Return an immutable snapshot of the current counters."""
        return TrafficSnapshot(
            **{spec.name: getattr(self, spec.name) for spec in fields(TrafficSnapshot)}
        )

    def reset(self) -> None:
        """Zero every counter (history included)."""
        for spec in fields(TrafficSnapshot):
            setattr(self, spec.name, 0)
        self.stash_history.clear()
