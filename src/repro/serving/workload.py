"""Synthetic serving workloads: bursty / open-loop Zipf request streams.

The offline experiments replay one long trace; a serving benchmark needs
*arrival times*.  This module drives an
:class:`~repro.serving.service.AsyncShardedService` with requests whose ids
follow the repo's standard Zipf popularity profile
(:class:`~repro.datasets.zipf.ZipfTraceGenerator`) and whose arrivals follow
one of two processes:

* ``"bursty"`` — requests arrive in bursts of ``burst_size`` with
  exponential (Poisson) gaps between bursts: the hardest pattern for a
  coalescing dispatcher, since a burst lands together and must be batched
  well to avoid queueing collapse;
* ``"open"`` — independent Poisson arrivals at ``rate_rps``: the classic
  open-loop load model where latency includes genuine queueing delay.

Both are open-loop: arrivals do not wait for completions, so the reported
percentiles honestly include queueing (a closed loop would self-throttle
and hide it).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.serving.service import AsyncShardedService, LatencyStats
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class WorkloadReport:
    """Outcome of one serving workload run."""

    arrival: str
    num_requests: int
    request_size: int
    duration_s: float
    throughput_rps: float
    throughput_ids_per_s: float
    latency: LatencyStats


async def run_zipf_workload(
    service: AsyncShardedService,
    num_requests: int,
    request_size: int = 16,
    arrival: str = "bursty",
    burst_size: int = 8,
    rate_rps: float = 200.0,
    zipf_exponent: float = 1.1,
    seed: int = 0,
) -> WorkloadReport:
    """Drive ``service`` with a Zipf-popularity request stream; report latency.

    Request ids are drawn once up front (deterministic for ``seed``), then
    submitted according to the arrival process.  ``rate_rps`` is the mean
    *request* rate; in bursty mode bursts of ``burst_size`` arrive at rate
    ``rate_rps / burst_size`` so the offered load matches the open-loop
    mode at equal ``rate_rps``.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if request_size < 1:
        raise ConfigurationError("request_size must be >= 1")
    if arrival not in ("bursty", "open"):
        raise ConfigurationError("arrival must be 'bursty' or 'open'")
    if rate_rps <= 0:
        raise ConfigurationError("rate_rps must be positive")
    if burst_size < 1:
        raise ConfigurationError("burst_size must be >= 1")

    num_blocks = service.runner.num_blocks
    ids = (
        ZipfTraceGenerator(num_blocks, exponent=zipf_exponent, seed=seed)
        .generate(num_requests * request_size)
        .addresses.reshape(num_requests, request_size)
    )
    gap_rng = make_rng(seed + 1)

    await service.start()
    loop = asyncio.get_running_loop()
    started = loop.time()
    tasks: list[asyncio.Task] = []
    # One arrival group is a burst, or a single request in open mode.  Group
    # ``g`` is due at ``started`` plus the gaps drawn before it: sleeping
    # until that absolute time, not for a fresh gap after each submit, keeps
    # the time ``submit`` and the loop's other tasks take out of the
    # schedule, so the offered rate is the one asked for.
    group = burst_size if arrival == "bursty" else 1
    due = started
    for first in range(0, num_requests, group):
        await asyncio.sleep(max(0.0, due - loop.time()))
        for request in range(first, min(first + group, num_requests)):
            tasks.append(asyncio.create_task(service.submit(ids[request].tolist())))
        due += float(gap_rng.exponential(group / rate_rps))
    await asyncio.gather(*tasks)
    duration = loop.time() - started
    return WorkloadReport(
        arrival=arrival,
        num_requests=num_requests,
        request_size=request_size,
        duration_s=duration,
        throughput_rps=num_requests / duration if duration > 0 else 0.0,
        throughput_ids_per_s=(
            num_requests * request_size / duration if duration > 0 else 0.0
        ),
        latency=service.latency_summary(),
    )
