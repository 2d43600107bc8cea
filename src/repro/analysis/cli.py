"""``python -m repro.analysis`` — the lint driver CLI.

Exit codes: 0 = clean (no non-baselined findings), 1 = new findings,
2 = usage/IO error (unreadable file, malformed baseline).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    save_baseline,
    split_against_baseline,
)
from repro.analysis.core import AnalysisError, analyze_paths
from repro.analysis.reporters import REPORTERS

DEFAULT_PATHS = ("src/repro", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Source-level linter: randomness through repro.utils.rng and "
            "well-formed suppressions (see docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline of accepted findings; defaults to "
            f"{DEFAULT_BASELINE} when it exists"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    paths = args.paths or [p for p in DEFAULT_PATHS if os.path.exists(p)]
    if not paths:
        parser.error("no paths given and none of the defaults exist")

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE

    try:
        result = analyze_paths(paths)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        save_baseline(target, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {target}",
            file=sys.stderr,
        )
        return 0

    baseline = []
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    new, matched, stale = split_against_baseline(result.findings, baseline)
    REPORTERS[args.format](result, sys.stdout, new, matched)
    if stale:
        print(
            f"note: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} no longer found; "
            "regenerate with --write-baseline",
            file=sys.stderr,
        )
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
