"""Asyncio serving front-end: coalescing, accounting, failure propagation."""

from __future__ import annotations

import asyncio
import os
import selectors
import signal
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShardExecutionError
from repro.experiments.sharded import ShardedRunner
from repro.serving import (
    AsyncShardedService,
    run_zipf_workload,
    summarize_latencies,
)
from repro.utils.rng import make_rng

NUM_BLOCKS = 1 << 10
NUM_SHARDS = 3


def _runner(num_workers=None):
    kwargs = {} if num_workers is None else {"num_workers": num_workers}
    return ShardedRunner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, **kwargs)


@pytest.mark.parametrize("num_workers", [None, 2])
def test_submit_serves_every_id(num_workers):
    async def main():
        with _runner(num_workers) as runner:
            async with AsyncShardedService(runner) as service:
                latencies = await asyncio.gather(
                    *(service.submit([i, i + 7, i + 21]) for i in range(20))
                )
            runner.executor.refresh_states()
            merged = runner.merged_snapshot()
        assert len(latencies) == 20
        assert all(lat >= 0.0 for lat in latencies)
        assert merged.logical_accesses == 20 * 3
        stats = service.latency_summary()
        assert stats.count == 20
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms

    asyncio.run(main())


def test_concurrent_requests_coalesce_into_batches():
    async def main():
        with _runner() as runner:
            async with AsyncShardedService(runner) as service:
                await service.start()
                # All submissions are queued before any dispatcher wakes, so
                # each shard's dispatcher sees them together and must serve
                # them as one coalesced batch.
                await asyncio.gather(
                    *(service.submit([i]) for i in range(0, 30))
                )
            stats = service.latency_summary()
            # 30 single-id requests over 3 shards: far fewer dispatches than
            # requests proves coalescing (one batch per shard, not per request).
            assert len(service._batch_sizes) <= 2 * NUM_SHARDS
            assert stats.mean_batch_size > 1.0

    asyncio.run(main())


def test_batch_cap_limits_coalescing():
    async def main():
        with _runner() as runner:
            async with AsyncShardedService(runner, max_batch_ids=2) as service:
                await service.start()
                await asyncio.gather(*(service.submit([3, 6, 9]) for _ in range(8)))
            assert max(service._batch_sizes) <= 2 + 3  # cap + one entry overshoot

    asyncio.run(main())


def test_out_of_range_id_rejected():
    async def main():
        with _runner() as runner:
            async with AsyncShardedService(runner) as service:
                with pytest.raises(ConfigurationError):
                    await service.submit([NUM_BLOCKS + 5])

    asyncio.run(main())


def test_backend_failure_propagates_to_submitters():
    async def main():
        with _runner() as runner:
            def explode(ids):
                raise RuntimeError("backend down")

            for engine in runner.engines:
                engine.access_many = explode
            async with AsyncShardedService(runner) as service:
                with pytest.raises(RuntimeError, match="backend down"):
                    await service.submit([1, 2, 3])
                # The failure is sticky: later submissions fail fast.
                with pytest.raises(RuntimeError, match="backend down"):
                    await service.submit([4])

    asyncio.run(main())


def test_a_cancelled_request_does_not_stop_its_dispatcher():
    # The submit is cancelled while its batch executes, so the dispatcher
    # finds the request's future done when the batch completes: it must go
    # on serving, or later submits and close() would wait forever.
    async def main():
        with _runner() as runner:
            engine = runner.engines[0]
            serve, entered, release = engine.access_many, threading.Event(), threading.Event()

            def held(ids):
                entered.set()
                release.wait(10.0)
                return serve(ids)

            engine.access_many = held
            service = AsyncShardedService(runner)
            await service.start()
            task = asyncio.create_task(service.submit([0, 3]))
            await asyncio.to_thread(entered.wait, 10.0)
            task.cancel()
            release.set()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.wait_for(service.submit([6]), timeout=10.0)
            await asyncio.wait_for(service.close(), timeout=10.0)
            runner.executor.refresh_states()
            assert runner.merged_snapshot().logical_accesses == 3

    asyncio.run(main())


@pytest.mark.parametrize("num_workers", [None, 2])
def test_an_empty_request_completes_at_once(num_workers):
    # An empty request touches no unit, so no dispatcher would ever resolve
    # a future for it: it completes without one, and is still counted.
    async def main():
        with _runner(num_workers) as runner:
            async with AsyncShardedService(runner) as service:
                latency = await asyncio.wait_for(service.submit([]), timeout=10.0)
                await service.submit([5, 6])
            runner.executor.refresh_states()
            assert runner.merged_snapshot().logical_accesses == 2
        assert latency >= 0.0
        assert service.latency_summary().count == 2

    asyncio.run(main())


@pytest.mark.parametrize("num_workers", [None, 1])
def test_backend_failure_fails_queued_requests_and_lets_close_return(num_workers):
    """A failed batch must not strand what queued behind it on that unit:
    every in-flight submit raises, close() returns, later submits raise."""

    async def main():
        kwargs = {} if num_workers is None else {"num_workers": num_workers}
        with ShardedRunner(64, 1, family="pathoram", **kwargs) as runner:
            if num_workers is None:
                def explode(ids):
                    raise RuntimeError("backend down")

                runner.engines[0].access_many = explode
                expected = RuntimeError
            else:
                worker = runner.executor._procs[0]
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(timeout=5.0)
                expected = ShardExecutionError
            service = AsyncShardedService(runner, max_batch_ids=1)
            await service.start()
            # max_batch_ids=1: the first batch takes one request and fails
            # while the other two are still queued for the same unit.
            outcomes = await asyncio.gather(
                *(service.submit([i]) for i in range(3)), return_exceptions=True
            )
            assert [type(outcome) for outcome in outcomes] == [expected] * 3
            await service.close()
            with pytest.raises(expected):
                await service.submit([4])

    asyncio.run(asyncio.wait_for(main(), timeout=20.0))


@pytest.mark.parametrize("arrival", ["bursty", "open"])
def test_zipf_workload_reports(arrival):
    async def main():
        with _runner() as runner:
            async with AsyncShardedService(runner) as service:
                report = await run_zipf_workload(
                    service,
                    num_requests=40,
                    request_size=4,
                    arrival=arrival,
                    burst_size=8,
                    rate_rps=4000.0,
                    seed=5,
                )
            merged = runner.merged_snapshot()
        assert report.arrival == arrival
        assert report.num_requests == 40
        assert report.latency.count == 40
        assert report.throughput_rps > 0
        assert merged.logical_accesses == 40 * 4

    asyncio.run(main())


def test_workload_is_deterministic_in_ids():
    """Same seed -> same Zipf ids -> same oblivious access totals."""

    async def run_once():
        with _runner() as runner:
            async with AsyncShardedService(runner) as service:
                await run_zipf_workload(
                    service,
                    num_requests=25,
                    request_size=4,
                    arrival="open",
                    rate_rps=5000.0,
                    seed=3,
                )
            return runner.merged_snapshot().logical_accesses

    assert asyncio.run(run_once()) == asyncio.run(run_once())


class _VirtualClock:
    """Loop time that only moves when something says how long it took."""

    now = 0.0


class _SkippingSelector(selectors.DefaultSelector):
    """Advances the virtual clock by the time the loop wanted to block for."""

    def __init__(self, clock):
        super().__init__()
        self._clock = clock

    def select(self, timeout=None):
        if timeout:
            self._clock.now += timeout
        return super().select(0)


class _SlowSubmitService:
    """Service stub whose ``submit`` costs ``cost_s`` of loop time per call."""

    def __init__(self, clock, cost_s):
        self.runner = SimpleNamespace(num_blocks=NUM_BLOCKS)
        self._clock = clock
        self._cost_s = cost_s
        self.submitted_at = []

    async def start(self):
        pass

    async def submit(self, ids):
        self.submitted_at.append(self._clock.now)
        self._clock.now += self._cost_s

    def latency_summary(self):
        return summarize_latencies([])


@pytest.mark.parametrize("arrival, burst_size", [("open", 1), ("bursty", 4)])
@pytest.mark.parametrize("cost_s", [0.0, 0.002])
def test_schedule_is_the_sum_of_drawn_gaps_however_slow_submit_is(
    arrival, burst_size, cost_s
):
    """Group ``g`` goes out at the sum of the gaps drawn before it — or, when
    the submits of the group before it ran past that, the moment they end —
    never later by the submit time of every earlier request (finding 6)."""
    num_requests, rate_rps, seed = 24, 100.0, 11
    groups = -(-num_requests // burst_size)
    gaps = make_rng(seed + 1).exponential(burst_size / rate_rps, size=groups)
    due = np.concatenate(([0.0], gaps[:-1].cumsum())).tolist()
    expected = [0.0]
    for offset in due[1:]:
        expected.append(max(offset, expected[-1] + burst_size * cost_s))

    clock = _VirtualClock()
    service = _SlowSubmitService(clock, cost_s)
    loop = asyncio.SelectorEventLoop(_SkippingSelector(clock))
    loop.time = lambda: clock.now
    try:
        report = loop.run_until_complete(
            run_zipf_workload(
                service,
                num_requests=num_requests,
                request_size=2,
                arrival=arrival,
                burst_size=burst_size,
                rate_rps=rate_rps,
                seed=seed,
            )
        )
    finally:
        loop.close()
    assert service.submitted_at[::burst_size] == pytest.approx(expected)
    # Lateness does not accumulate: the last group is due, and goes out, at
    # the sum of the gaps however much submit time went before it.
    assert expected[-1] == pytest.approx(sum(gaps[:-1]))
    last_burst = num_requests - (groups - 1) * burst_size
    assert report.duration_s == pytest.approx(expected[-1] + last_burst * cost_s)


def test_latency_summary_empty_and_basic():
    empty = summarize_latencies([])
    assert empty.count == 0 and empty.p99_ms == 0.0
    stats = summarize_latencies([0.001, 0.002, 0.010], [2, 4])
    assert stats.count == 3
    assert stats.p50_ms == pytest.approx(2.0)
    assert stats.max_ms == pytest.approx(10.0)
    assert stats.mean_batch_size == pytest.approx(3.0)
