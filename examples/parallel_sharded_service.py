#!/usr/bin/env python
"""Parallel sharded serving: worker processes + asyncio request coalescing.

This script demonstrates the online deployment shape of the reproduction:

1. build a :class:`ShardedRunner` whose shards execute in worker processes;
2. verify the process backend is **bit-identical** to the in-process
   sequential backend on the same Zipf trace (same merged traffic snapshot,
   same per-shard position maps, asked of the workers) — and exit non-zero
   if it is not;
3. stand up the :class:`AsyncShardedService` front-end and drive it with a
   bursty Zipf request workload — concurrent ``submit()`` calls coalesce
   into batched oblivious accesses per worker;
4. report wall-clock throughput and p50/p95/p99 request latency.

Run with ``python examples/parallel_sharded_service.py``.  Worker count
defaults to 2; pass ``--num-workers 4`` on a machine with cores to spare
(wall-clock scaling needs physical cores — on a 1-2 core box the parallel
backend demonstrates correctness, not speedup).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.datasets import ZipfTraceGenerator
from repro.experiments.sharded import ShardedRunner
from repro.serving import AsyncShardedService, run_zipf_workload

NUM_BLOCKS = 1 << 14
NUM_SHARDS = 4
NUM_ACCESSES = 20_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=300)
    args = parser.parse_args()

    trace = ZipfTraceGenerator(NUM_BLOCKS, exponent=1.1, seed=7).generate(
        NUM_ACCESSES
    )

    # 1-2. Offline replay: sequential vs process-parallel, bit-identical.
    sequential = ShardedRunner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=3)
    start = time.perf_counter()
    seq_snapshot = sequential.run_trace(trace.addresses)
    seq_wall = time.perf_counter() - start

    with ShardedRunner(
        NUM_BLOCKS,
        NUM_SHARDS,
        family="laoram",
        seed=3,
        num_workers=args.num_workers,
    ) as parallel:
        start = time.perf_counter()
        par_snapshot = parallel.run_trace(trace.addresses)
        par_wall = time.perf_counter() - start
        maps_match = all(
            np.array_equal(a, b)
            for a, b in zip(sequential.position_maps(), parallel.position_maps())
        )

    print(f"replay: {NUM_ACCESSES} Zipf accesses over {NUM_SHARDS} shards")
    print(f"  sequential backend:          {seq_wall:6.2f}s")
    print(f"  {args.num_workers} worker processes:          {par_wall:6.2f}s")
    snapshots_match = par_snapshot == seq_snapshot
    print(f"  merged snapshots identical:  {snapshots_match}")
    print(f"  position maps identical:     {maps_match}")

    # 3-4. Online serving with request coalescing.
    async def serve() -> None:
        with ShardedRunner(
            NUM_BLOCKS,
            NUM_SHARDS,
            family="laoram",
            seed=3,
            num_workers=args.num_workers,
        ) as runner:
            async with AsyncShardedService(runner) as service:
                report = await run_zipf_workload(
                    service,
                    num_requests=args.requests,
                    request_size=16,
                    arrival="bursty",
                    burst_size=8,
                    rate_rps=1000.0,
                    seed=11,
                )
            runner.executor.refresh_states()
            served = runner.merged_snapshot().logical_accesses
        latency = report.latency
        print(f"serving: {args.requests} bursty requests x 16 ids")
        print(f"  throughput:        {report.throughput_rps:7.0f} req/s")
        print(
            f"  latency p50/95/99: {latency.p50_ms:.2f} / {latency.p95_ms:.2f} "
            f"/ {latency.p99_ms:.2f} ms"
        )
        print(f"  mean batch size:   {latency.mean_batch_size:.1f} ids")
        print(f"  oblivious accesses served: {served}")

    asyncio.run(serve())
    return 0 if snapshots_match and maps_match else 1


if __name__ == "__main__":
    sys.exit(main())
