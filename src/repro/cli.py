"""Command-line entry point regenerating the paper's tables and figures.

Examples::

    laoram-repro table1
    laoram-repro figure7 --subfigure 7e --scale small
    laoram-repro table2 --scale tiny
    laoram-repro all --scale tiny
    laoram-repro recursion --scale tiny
    laoram-repro sharded --num-blocks 65536 --num-shards 8 --num-workers 4
    laoram-repro serve --num-workers 2 --requests 500 --arrival bursty
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Sequence

from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.experiments import report
from repro.experiments.figure2 import run_figure2
from repro.experiments.matrix import SUBFIGURES, ReplayMatrix
from repro.experiments.scale import get_scale
from repro.experiments.sharded import SHARDABLE_FAMILIES, ShardedRunner
from repro.experiments.table1 import run_table1
from repro.serving import AsyncShardedService, run_zipf_workload


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "medium", "large"),
        help="experiment scale preset (default: small)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="laoram-repro",
        description="Regenerate the LAORAM paper's evaluation tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig2 = subparsers.add_parser("figure2", help="Kaggle access-pattern summary")
    fig2.add_argument("--accesses", type=int, default=10_000)

    fig7 = subparsers.add_parser("figure7", help="speedup over PathORAM")
    fig7.add_argument("--subfigure", default="7e", choices=sorted(SUBFIGURES))
    _add_scale_argument(fig7)

    fig8 = subparsers.add_parser("figure8", help="stash growth, fat vs normal tree")
    _add_scale_argument(fig8)

    fig9 = subparsers.add_parser("figure9", help="memory traffic reduction")
    _add_scale_argument(fig9)

    subparsers.add_parser("table1", help="memory requirement of each organisation")

    tab2 = subparsers.add_parser("table2", help="average dummy reads per access")
    _add_scale_argument(tab2)

    neutral = subparsers.add_parser(
        "memory-neutral", help="fat tree vs enlarged normal tree"
    )
    _add_scale_argument(neutral)

    everything = subparsers.add_parser("all", help="run every experiment")
    _add_scale_argument(everything)

    recursion = subparsers.add_parser(
        "recursion", help="recursive position map against the dense one"
    )
    _add_scale_argument(recursion)

    def _add_sharding_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--num-blocks", type=int, default=1 << 14)
        sub.add_argument("--num-shards", type=int, default=4)
        sub.add_argument(
            "--num-workers",
            type=int,
            default=None,
            help="worker processes (<= shards); omit for the in-process "
            "sequential backend — results are bit-identical either way",
        )
        sub.add_argument(
            "--family",
            default="laoram",
            choices=sorted(SHARDABLE_FAMILIES),
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--zipf-exponent", type=float, default=1.1)

    sharded = subparsers.add_parser(
        "sharded",
        help="replay a Zipf trace through the (optionally process-parallel) "
        "sharded runner",
    )
    _add_sharding_arguments(sharded)
    sharded.add_argument("--num-accesses", type=int, default=20_000)

    serve = subparsers.add_parser(
        "serve",
        help="drive the asyncio serving front-end with a bursty/open Zipf "
        "workload and report latency percentiles",
    )
    _add_sharding_arguments(serve)
    serve.add_argument("--requests", type=int, default=300)
    serve.add_argument("--request-size", type=int, default=16)
    serve.add_argument("--arrival", default="bursty", choices=("bursty", "open"))
    serve.add_argument("--burst-size", type=int, default=8)
    serve.add_argument("--rate-rps", type=float, default=1000.0)
    return parser


def _build_runner(args: argparse.Namespace) -> ShardedRunner:
    return ShardedRunner(
        num_blocks=args.num_blocks,
        num_shards=args.num_shards,
        family=args.family,
        seed=args.seed,
        num_workers=args.num_workers,
    )


def run_sharded(args: argparse.Namespace) -> str:
    """Replay a Zipf trace through the sharded runner; summarize the merge."""
    import time

    trace = ZipfTraceGenerator(
        args.num_blocks, exponent=args.zipf_exponent, seed=args.seed + 7
    ).generate(args.num_accesses)
    with _build_runner(args) as runner:
        start = time.perf_counter()
        snapshot = runner.run_trace(trace.addresses)
        wall = time.perf_counter() - start
        occupancies = runner.stash_occupancies()
        simulated = runner.simulated_time_parallel_s
    backend = (
        f"{args.num_workers} worker processes"
        if args.num_workers
        else "sequential in-process"
    )
    return (
        f"Sharded run: {args.num_accesses} accesses, {args.num_blocks} blocks, "
        f"{args.num_shards} shards ({args.family}, {backend})\n"
        f"  wall-clock: {wall:.2f}s ({args.num_accesses / wall:.0f} acc/s)\n"
        f"  simulated (slowest shard): {simulated:.4f}s\n"
        f"  path reads: {snapshot.path_reads}  "
        f"dummy reads: {snapshot.dummy_reads}\n"
        f"  stash peak: {snapshot.stash_peak}  "
        f"per-shard occupancy: {occupancies}"
    )


def run_serve(args: argparse.Namespace) -> str:
    """Run the asyncio serving workload; report latency percentiles."""

    async def _run() -> tuple:
        with _build_runner(args) as runner:
            async with AsyncShardedService(runner) as service:
                run_report = await run_zipf_workload(
                    service,
                    num_requests=args.requests,
                    request_size=args.request_size,
                    arrival=args.arrival,
                    burst_size=args.burst_size,
                    rate_rps=args.rate_rps,
                    zipf_exponent=args.zipf_exponent,
                    seed=args.seed + 7,
                )
            runner.executor.refresh_states()
            return run_report, runner.merged_snapshot()

    run_report, snapshot = asyncio.run(_run())
    latency = run_report.latency
    backend = (
        f"{args.num_workers} worker processes"
        if args.num_workers
        else "sequential in-process"
    )
    return (
        f"Serving run: {args.requests} requests x {args.request_size} ids, "
        f"{args.arrival} arrivals at {args.rate_rps:.0f} req/s "
        f"({args.family}, {args.num_shards} shards, {backend})\n"
        f"  throughput: {run_report.throughput_rps:.0f} req/s "
        f"({run_report.throughput_ids_per_s:.0f} ids/s)\n"
        f"  latency p50/p95/p99: {latency.p50_ms:.2f} / {latency.p95_ms:.2f} / "
        f"{latency.p99_ms:.2f} ms (mean batch {latency.mean_batch_size:.1f})\n"
        f"  oblivious accesses served: {snapshot.logical_accesses}"
    )


def run_command(args: argparse.Namespace) -> str:
    """Execute the selected experiment and return its textual report."""
    if args.command == "sharded":
        return run_sharded(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "figure2":
        result = run_figure2(num_accesses=args.accesses)
        return (
            "Figure 2: Kaggle access pattern\n"
            f"  accesses: {len(result.indices)}\n"
            f"  unique fraction: {result.unique_fraction:.2f}\n"
            f"  hot band fraction: {result.hot_band_fraction:.2f}\n"
            f"  table coverage: {result.coverage_fraction:.4f}"
        )
    if args.command == "table1":
        return report.render_table1(run_table1())
    renderers = {
        "figure7": lambda matrix: report.render_figure7(matrix, args.subfigure),
        "figure8": report.render_figure8,
        "figure9": report.render_figure9,
        "table2": report.render_table2,
        "memory-neutral": report.render_memory_neutral,
        "recursion": report.render_recursion,
        "all": lambda matrix: "\n\n".join([
            report.render_table1(run_table1()),
            report.render_figure7(matrix, "7e"),
            report.render_figure8(matrix),
            report.render_figure9(matrix),
            report.render_table2(matrix),
            report.render_memory_neutral(matrix),
        ]),
    }
    if args.command not in renderers:
        raise ValueError(f"unknown command {args.command!r}")
    # Each command's sections are projections of one replay matrix, so a
    # replay two sections share is made once.
    return renderers[args.command](ReplayMatrix(get_scale(args.scale)))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(run_command(args))
    except ConfigurationError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
