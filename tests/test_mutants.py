"""The committed mutants stay runnable (``tests/mutants``).

Every mutant's edit applies exactly once to the source it names and its
tests exist; one Python and one C mutant are run end to end, so the runner
cannot rot between full runs (``python -m tests.mutants``, a CI job of its
own); and a mutant its tests do not kill, or one whose edit does not apply,
is reported, not counted as killed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import mutants
from mutants import SOURCE, Mutant, killed, precheck, run, run_tests
from mutants.catalog import C_MUTANTS, MUTANTS, PYTHON_MUTANTS

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The two run on every tier-1 pass: quick builds, quick kills.
SMOKE = ("commit-counts-distinct-ids", "evict-at-the-trigger")


def test_every_mutant_edits_its_source_once_and_names_real_tests():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    assert PYTHON_MUTANTS and C_MUTANTS
    for mutant in MUTANTS:
        source = (SOURCE / "repro" / mutant.path).read_text(encoding="utf-8")
        assert mutant.edit(source) != source, mutant.name
        assert mutant.kills and mutant.guards, mutant.name
        for test_id in mutant.kills:
            path, _, name = test_id.partition("::")
            function = re.sub(r"\[.*\]$", "", name).split("::")[-1]
            assert f"def {function}(" in (REPO_ROOT / path).read_text(encoding="utf-8"), test_id


def test_every_mutant_is_cited_in_the_docs():
    # docs/static_analysis.md names each deleted rule's mutants and, per
    # row of "Outside the scan", the C mutants that hold it.
    doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text(encoding="utf-8")
    assert [mutant.name for mutant in MUTANTS if f"`{mutant.name}`" not in doc] == []


def _kernel_builds() -> set[str]:
    return {path.name for path in (SOURCE / "repro" / "oram" / "__pycache__").glob("_write_back.*")}


def test_a_python_and_a_c_mutant_are_killed(capsys):
    builds = _kernel_builds()
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    assert run([by_name[name] for name in SMOKE]) == 0
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()[:2]] == [
        ["killed", name] for name in SMOKE
    ]
    # The C mutant was built in the copy: the source tree's build stays.
    assert _kernel_builds() == builds


def test_a_mutant_its_tests_do_not_kill_survives(capsys):
    # A docstring edit breaks nothing, so the test it names passes.
    harmless = Mutant(
        name="a-docstring-edit",
        path="oram/row_store.py",
        search="or a fresh copy: no write through a returned row",
        replace="or a fresh copy; no write through a returned row",
        kills=("tests/test_eviction.py::TestTheEvictionFields::test_defaults_match_section_viii",),
        guards="nothing",
    )
    assert run([harmless]) == 1
    out = capsys.readouterr().out
    assert "SURVIVED  a-docstring-edit" in out
    assert "PASSED   tests/test_eviction.py::" in out


def test_an_edit_that_does_not_apply_fails_the_precheck(tmp_path):
    stale = Mutant(
        name="a-stale-edit",
        path="oram/row_store.py",
        search="text that is not in the source",
        replace="",
        kills=("tests/test_eviction.py::TestTheEvictionFields::test_no_such_test",),
        guards="nothing",
    )
    problems = precheck([stale], tmp_path)
    assert any("occurs 0 times" in problem for problem in problems)
    assert any("test_no_such_test is MISSING" in problem for problem in problems)


def test_a_search_text_must_occur_exactly_once():
    twice = Mutant(
        name="a-repeated-edit",
        path="oram/row_store.py",
        search="x = 1",
        replace="x = 2",
        kills=(),
        guards="nothing",
    )
    assert twice.edit("y = 0\nx = 1\n") == "y = 0\nx = 2\n"
    with pytest.raises(ValueError, match="occurs 2 times"):
        twice.edit("x = 1\nx = 1\n")


def test_a_mutant_is_killed_only_when_every_test_fails():
    assert killed({"a": "FAILED", "b": "ERROR"})
    # One passing test, or one the run never reported, keeps it alive.
    assert not killed({"a": "FAILED", "b": "PASSED"})
    assert not killed({"a": "FAILED", "b": "MISSING"})
    # Nor does a run stopped for its time: a stalled mutant survives by name.
    assert not killed({"a": "FAILED", "b": "TIMEOUT"})


def test_a_run_past_the_timeout_is_stopped(monkeypatch):
    monkeypatch.setattr(mutants, "TIMEOUT_S", 0.01)
    test_ids = (
        "tests/test_eviction.py::TestTheEvictionFields::test_defaults_match_section_viii",
        "tests/test_eviction.py::TestTheEvictionFields::test_no_such_test",
    )
    assert run_tests(SOURCE, test_ids) == dict.fromkeys(test_ids, "TIMEOUT")
