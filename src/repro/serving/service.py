"""Asyncio serving front-end over a :class:`ShardedRunner`.

A deployed ORAM-protected embedding service does not see one long trace; it
sees concurrent lookup requests arriving at arbitrary times.  This module
adds the online half: an :class:`AsyncShardedService` accepts
``await service.submit([ids...])`` calls from any number of concurrent
tasks, routes each request's ids to their shards, and **coalesces** whatever
is waiting for the same backend into one batched command so the engines run
their vectorized multi-access path instead of one round-trip per request.

Dispatch is one dedicated dispatcher task per backend unit — one of the
runner's executor's hosts: a worker process, or a shard engine of the
in-process backend — so each engine only ever executes one batch at a time
(engines are not thread-safe) while distinct units serve concurrently.  A
dispatcher drains its queue each cycle: everything that queued while the
previous batch was executing forms the next batch, a natural feedback loop
that grows batches exactly when the system is saturated.

Latency is recorded per request (submit to completion, including queueing)
and summarized as p50/p95/p99 — the numbers a service operator actually
provisions against, as opposed to the modeled device time
(``simulated_time_s``) the offline experiments report.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.sharded import ShardedRunner


@dataclass(frozen=True)
class LatencyStats:
    """Request-latency summary of a serving run (milliseconds)."""

    count: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_batch_size: float


def summarize_latencies(
    latencies_s: Sequence[float], batch_sizes: Sequence[int] = ()
) -> LatencyStats:
    """Percentile summary of per-request latencies (seconds in, ms out)."""
    if not latencies_s:
        return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(ms, [50.0, 95.0, 99.0])
    mean_batch = float(np.mean(batch_sizes)) if len(batch_sizes) else 0.0
    return LatencyStats(
        count=int(ms.size),
        p50_ms=float(p50),
        p95_ms=float(p95),
        p99_ms=float(p99),
        mean_ms=float(ms.mean()),
        max_ms=float(ms.max()),
        mean_batch_size=mean_batch,
    )


class _Pending:
    """One request in flight: its future and the units still serving it."""

    __slots__ = ("future", "units")

    def __init__(self, future: asyncio.Future, units: int):
        self.future = future
        self.units = units


class AsyncShardedService:
    """Coalescing asyncio front-end for sharded oblivious lookups.

    Wraps a :class:`~repro.experiments.sharded.ShardedRunner` (either
    backend).  Use as an async context manager::

        async with AsyncShardedService(runner) as service:
            await service.submit([3, 17, 42])
            print(service.latency_summary())

    ``max_batch_ids`` caps how many ids one dispatch cycle coalesces so a
    burst cannot build an unboundedly large batch (tail latency of the
    requests trapped behind it).  The service does not own the runner: the
    caller decides when to :meth:`ShardedRunner.close` it.
    """

    def __init__(self, runner: ShardedRunner, max_batch_ids: int = 4096):
        if max_batch_ids < 1:
            raise ConfigurationError("max_batch_ids must be >= 1")
        self.runner = runner
        self.max_batch_ids = max_batch_ids
        self._queues: list[asyncio.Queue] = []
        self._dispatchers: list[asyncio.Task] = []
        self._started = False
        self._latencies_s: list[float] = []
        self._batch_sizes: list[int] = []
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start one dispatcher task per backend unit."""
        if self._started:
            return
        units = range(self.runner.executor.num_workers)
        self._queues = [asyncio.Queue() for _ in units]
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(unit)) for unit in units
        ]
        self._started = True

    async def close(self) -> None:
        """Stop dispatchers after letting queued work drain."""
        if not self._started:
            return
        for q in self._queues:
            await q.join()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._started = False

    async def __aenter__(self) -> "AsyncShardedService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, block_ids: Sequence[int]) -> float:
        """Obliviously access ``block_ids``; returns the request latency (s).

        The ids are split by shard, grouped by backend unit, and each group
        queued to that unit's dispatcher, where it coalesces with whatever
        other requests are in flight.  Completes when every shard touched by
        the request has served its part: one future per request, resolved
        by the dispatcher that serves its last part.
        """
        if not self._started:
            await self.start()
        if self._failure is not None:
            raise self._failure
        start = time.perf_counter()
        routed = self.runner.planner.split_ids(block_ids)
        by_unit: dict[int, dict[int, list[int]]] = {}
        for shard_id, local_ids in routed.items():
            unit = self.runner.executor.worker_of(shard_id)
            by_unit.setdefault(unit, {})[shard_id] = local_ids
        if by_unit:  # an empty request touches no unit and is done now
            pending = _Pending(asyncio.get_running_loop().create_future(), len(by_unit))
            for unit, unit_routed in by_unit.items():
                self._queues[unit].put_nowait((unit_routed, pending))
            await pending.future
        latency = time.perf_counter() - start
        self._latencies_s.append(latency)
        return latency

    async def _dispatch_loop(self, unit: int) -> None:
        """Serve one backend unit: coalesce queued requests, execute, resolve."""
        q = self._queues[unit]
        while True:
            entries = [await q.get()]
            total = sum(len(ids) for ids in entries[0][0].values())
            # Everything that queued while the previous batch executed is
            # coalesced into this one, up to the id cap.
            while total < self.max_batch_ids and not q.empty():
                entry = q.get_nowait()
                entries.append(entry)
                total += sum(len(ids) for ids in entry[0].values())
            merged: dict[int, list[int]] = {}
            for unit_routed, _pending in entries:
                for shard_id, local_ids in unit_routed.items():
                    merged.setdefault(shard_id, []).extend(local_ids)
            try:
                # Requests are served as they arrive, so every engine takes
                # them through ``access_many``: LAORAM shards in superblock
                # bins, the others through their sequential (fused) driver.
                await asyncio.to_thread(
                    self.runner.executor.access_on_worker, unit, merged
                )
            except Exception as exc:
                # This unit serves nothing more: fail what queued behind
                # the batch too, so no submit waits forever and close()'s
                # join returns; later submits raise the stored failure.
                self._failure = exc
                while not q.empty():
                    entries.append(q.get_nowait())
                for _routed, pending in entries:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                for _ in entries:
                    q.task_done()
                return
            self._batch_sizes.append(total)
            for _routed, pending in entries:
                pending.units -= 1
                # A cancelled submit's future is done already.
                if pending.units == 0 and not pending.future.done():
                    pending.future.set_result(None)
            for _ in entries:
                q.task_done()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def latency_summary(self) -> LatencyStats:
        """p50/p95/p99 of every completed request so far."""
        return summarize_latencies(self._latencies_s, self._batch_sizes)
