"""The user surface prints what it printed: CLI and examples against golden stdout.

Each case runs one entry point in a fresh interpreter and diffs its stdout
against ``tests/golden/<name>.txt``.  Every figure these print comes from a
fixed seed (counts, losses, simulated times), so a change that claims to
leave behaviour alone must leave the text byte-identical.
``examples/parallel_sharded_service.py`` is left out: it prints wall-clock
times.

After a change that is meant to move a printed figure, regenerate the file
from the repo root with ``PYTHONPATH=src python <command> > tests/golden/<name>.txt``
and say in the change which figure moved and why.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"

#: golden file stem -> arguments after ``python``.
SURFACES = {
    "cli_all_tiny": ["-m", "repro.cli", "all", "--scale", "tiny"],
    "cli_recursion_tiny": ["-m", "repro.cli", "recursion", "--scale", "tiny"],
    "quickstart": ["examples/quickstart.py"],
    "attack_demo": ["examples/attack_demo.py"],
    "fat_tree_stash_study": ["examples/fat_tree_stash_study.py"],
    "dlrm_kaggle_training": ["examples/dlrm_kaggle_training.py"],
    "xlmr_xnli_training": ["examples/xlmr_xnli_training.py"],
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_stdout_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *SURFACES[name]],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile=f"golden/{name}.txt",
            tofile="stdout",
        )
    )
    assert not diff, diff
