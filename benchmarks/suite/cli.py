"""Command line: ``run`` one or all workloads, ``compare`` two result files."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Optional, Sequence

from benchmarks.suite.harness import REPO_ROOT, load_spec, prepare_process


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", help="one workload, in this process (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: traced run, prints the per-layer metrics")
    run.add_argument("--smoke", action="store_true", help="tiny sizes (tier-1 test)")
    run.add_argument("--json", dest="json_out", help="write all results to this file")
    compare = commands.add_parser("compare", help="verdict per workload x metric")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    return parser


def _provenance(seed: int, seconds: float, smoke: bool) -> dict:
    import numpy

    from benchmarks.suite.workloads import SIZES

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    scale = "smoke" if smoke else "full"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "sizes": {name: sizes[scale] for name, sizes in SIZES.items()},
    }


def _run_all(args, seconds: float) -> int:
    """Each workload in its own process, so peak RSS and BLAS pinning are its own."""
    spec = load_spec()
    results: dict[str, dict] = {}
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, "-m", "benchmarks.suite", "run",
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            for line in done.stdout.splitlines():
                if line.startswith("detail: "):
                    results.setdefault(workload, {})[f"trace{trace}"] = json.loads(line[8:])
                else:
                    print(line)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump({"provenance": _provenance(args.seed, seconds, args.smoke),
                       "workloads": results}, handle, indent=1)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        from benchmarks.suite.compare import compare_files

        return compare_files(args.baseline, args.candidate)
    prepare_process()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return _run_all(args, seconds)
    if args.json_out:
        parser.error("--json collects every workload; leave --workload out")
    from benchmarks.suite.runner import report, run_workload
    from benchmarks.suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    print(report(detail))
    return 0 if detail["correct"] else 1
