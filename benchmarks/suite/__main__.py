"""Entry point: ``python3 -m benchmarks.suite`` or ``python3 benchmarks/suite/__main__.py``."""

import sys
from pathlib import Path

if not __package__:
    # Run by file name (the command in BENCHMARK.json): the first path entry
    # is this directory; the package is importable from the repository root.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.suite.cli import main

if __name__ == "__main__":
    sys.exit(main())
