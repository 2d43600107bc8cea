"""Committed mutants of ``src/repro``: source edits the tests must kill.

A mutant is one edit of one file under ``src/repro`` — an exact search
text that must occur once, and its replacement — plus the test ids that
must fail once it is applied (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 1978).  The catalog is
:data:`tests.mutants.catalog.MUTANTS`.

The runner copies ``src/`` into a temporary directory, runs the mutants'
tests against the unmutated copy and requires every one of them to pass,
then, per mutant, applies its edit to a fresh copy and runs its tests
against that copy (``PYTHONPATH=<copy>/src``, no bytecode written).  The
mutant is killed when every one of its tests fails; a run that outlasts
:data:`TIMEOUT_S` is stopped and each of its tests reads ``TIMEOUT``, which
is no kill, so a stalled mutant is reported by name.  An edited
``_write_back.c`` is built by ``native.load`` on the copy's first import,
into the copy's ``oram/__pycache__``: a build in the source tree's would
evict its real build.

Run every mutant from the repository root::

    python -m tests.mutants

or some of them from Python with :func:`run`.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE = REPO_ROOT / "src"

#: Seconds one pytest run may take.  The slowest mutant's tests take about
#: 8 s on a 2-vCPU host, the precheck of every test about 10 s.
TIMEOUT_S = 60

#: One outcome line of pytest's ``-rA`` summary: the outcome, the node id (which
#: may hold spaces), then `` - `` and the message on a failure.
_OUTCOME_RE = re.compile(r"^(PASSED|FAILED|ERROR|XFAIL|XPASS) (.+?)(?: - .*)?$")


@dataclass(frozen=True)
class Mutant:
    """One source edit, and the tests that must fail under it."""

    name: str
    #: The edited file, relative to ``src/repro``.
    path: str
    search: str
    replace: str
    #: Test node ids, as pytest prints them; each must fail under the edit.
    kills: tuple[str, ...]
    #: What the mutant stands for: the removed rule or kernel part it holds.
    guards: str

    def edit(self, text: str) -> str:
        """``text`` with the edit applied; the search text must occur once."""
        count = text.count(self.search)
        if count != 1:
            raise ValueError(
                f"mutant {self.name}: its search text occurs {count} times in {self.path}"
            )
        return text.replace(self.search, self.replace)

    def apply(self, src: Path) -> None:
        """Edit the copy of ``src/`` at ``src``."""
        target = src / "repro" / self.path
        target.write_text(self.edit(target.read_text(encoding="utf-8")), encoding="utf-8")


def copy_source(into: Path) -> Path:
    """A copy of ``src/`` in ``into``: the sources and the kernel's build, no bytecode."""
    dest = into / "src"
    shutil.copytree(SOURCE, dest, ignore=shutil.ignore_patterns("*.pyc", "*.partial"))
    return dest


def run_tests(src: Path, test_ids) -> dict[str, str]:
    """Each test id's outcome (``PASSED``, ``FAILED``, ...) against the copy at ``src``.

    An id that errored at collection maps to ``ERROR``; one pytest did not
    report maps to ``MISSING``; every id of a run stopped after
    :data:`TIMEOUT_S` maps to ``TIMEOUT``.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="200")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *test_ids],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return dict.fromkeys(test_ids, "TIMEOUT")
    reported = {}
    for line in done.stdout.splitlines():
        match = _OUTCOME_RE.match(line)
        if match is not None:
            reported[match.group(2)] = match.group(1)
    return {
        test_id: reported.get(test_id, reported.get(test_id.split("::")[0], "MISSING"))
        for test_id in test_ids
    }


def loaded_from(src: Path) -> Path:
    """Where ``import repro`` resolves with the copy at ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return Path(done.stdout.strip())


def precheck(mutants, workdir: Path) -> list[str]:
    """What keeps ``mutants`` from being run: an edit that does not apply once,
    or a test that does not pass unmutated.  Empty when they can run."""
    problems = []
    src = copy_source(workdir / "unmutated")
    if not loaded_from(src).is_relative_to(src):
        return [f"the tests do not import repro from the copy at {src}"]
    for mutant in mutants:
        try:
            mutant.edit((src / "repro" / mutant.path).read_text(encoding="utf-8"))
        except ValueError as exc:
            problems.append(str(exc))
    test_ids = list(dict.fromkeys(t for mutant in mutants for t in mutant.kills))
    for test_id, outcome in run_tests(src, test_ids).items():
        if outcome != "PASSED":
            problems.append(f"{test_id} is {outcome} unmutated")
    return problems


def run_mutant(mutant: Mutant, workdir: Path) -> dict[str, str]:
    """The outcomes of the mutant's tests against a fresh copy with its edit."""
    src = copy_source(workdir / mutant.name)
    mutant.apply(src)
    return run_tests(src, mutant.kills)


def killed(outcomes: dict[str, str]) -> bool:
    return all(outcome in ("FAILED", "ERROR") for outcome in outcomes.values())


def run(mutants) -> int:
    """Precheck, then run, ``mutants``; print one line a mutant.  0 when all were killed."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as tmp:
        problems = precheck(mutants, Path(tmp))
        if problems:
            for problem in problems:
                print(f"precheck: {problem}")
            return 1
        survivors = 0
        for mutant in mutants:
            began = time.perf_counter()
            outcomes = run_mutant(mutant, Path(tmp))
            seconds = time.perf_counter() - began
            if killed(outcomes):
                print(f"killed    {mutant.name} ({len(outcomes)} test(s), {seconds:.1f} s)")
                continue
            survivors += 1
            print(f"SURVIVED  {mutant.name} ({seconds:.1f} s)")
            for test_id, outcome in outcomes.items():
                print(f"    {outcome:8s} {test_id}")
    print(
        f"{len(mutants) - survivors} of {len(mutants)} mutant(s) killed "
        f"in {time.perf_counter() - started:.0f} s"
    )
    return 1 if survivors else 0


def main() -> int:
    from .catalog import MUTANTS

    return run(list(MUTANTS))
