"""Tests for the static analysis framework (``repro.analysis``).

Three layers:

* Fixture corpus — every ``tests/analysis_fixtures/*.py`` file carries
  ``EXPECT`` markers naming the exact rule and line the analyzer must
  report; good fixtures carry none and must come back clean.
* Self-scan regression — ``src/repro`` + ``benchmarks`` must match the
  committed (empty) baseline, with zero findings.
* Planted bugs — a scratch copy of the real engine under a temp
  ``repro/oram/`` directory (so the rules' path-suffix matching treats it
  as the real file) with a planted unseeded generator must be caught.  No dynamic
  test kills that bug: a generator nobody draws from changes no figure.

The rules this analyzer no longer runs (OBL001/OBL002, CNT001, ALLOC001)
are held by the dynamic tests that kill their mutants (``tests/mutants``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Finding,
    analyze_paths,
    load_baseline,
    save_baseline,
    split_against_baseline,
)
from repro.analysis.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z]{2,8}\d{3}(?:\s*,\s*[A-Z]{2,8}\d{3})*)")
_EXPECT_BELOW_RE = re.compile(
    r"#\s*EXPECT-BELOW:\s*([A-Z]{2,8}\d{3}(?:\s*,\s*[A-Z]{2,8}\d{3})*)"
)


def expected_markers(path: Path) -> set[tuple[str, int, str]]:
    expected: set[tuple[str, int, str]] = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _EXPECT_RE.search(line)
        if match is not None:
            for rule in re.split(r"\s*,\s*", match.group(1)):
                expected.add((path.name, lineno, rule))
        match = _EXPECT_BELOW_RE.search(line)
        if match is not None:
            for rule in re.split(r"\s*,\s*", match.group(1)):
                expected.add((path.name, lineno + 1, rule))
    return expected


# ----------------------------------------------------------------------
# Fixture corpus
# ----------------------------------------------------------------------
def test_fixture_corpus_matches_markers_exactly():
    expected: set[tuple[str, int, str]] = set()
    for path in sorted(FIXTURES.glob("*.py")):
        expected |= expected_markers(path)
    assert expected, "fixture corpus must carry EXPECT markers"
    result = analyze_paths([str(FIXTURES)])
    got = {(Path(f.path).name, f.line, f.rule) for f in result.findings}
    assert got == expected


@pytest.mark.parametrize(
    "name, rule",
    [
        ("rng_bad.py", "RNG001"),
        ("suppression.py", "SUP001"),
    ],
)
def test_bad_fixture_triggers_rule(name, rule):
    result = analyze_paths([str(FIXTURES / name)])
    assert any(f.rule == rule for f in result.findings), (
        f"{name} should trigger {rule}; got "
        f"{[(f.rule, f.line) for f in result.findings]}"
    )


@pytest.mark.parametrize("name", ["rng_good.py"])
def test_good_fixture_is_clean(name):
    result = analyze_paths([str(FIXTURES / name)])
    assert result.findings == []


def test_valid_suppressions_are_recorded_with_reasons():
    result = analyze_paths([str(FIXTURES / "suppression.py")])
    assert len(result.suppressed) == 2
    assert all(supp.reason for _, supp in result.suppressed)
    assert sum(1 for f in result.findings if f.rule == "SUP001") == 2
    # The reasonless allow does NOT suppress the finding below it.
    assert sum(1 for f in result.findings if f.rule == "RNG001") == 1


# ----------------------------------------------------------------------
# Baseline machinery
# ----------------------------------------------------------------------
def test_baseline_round_trip_and_drift_tolerance(tmp_path):
    findings = [
        Finding(rule="RNG001", path="a.py", line=3, col=0, message="msg-a"),
        Finding(rule="SUP001", path="b.py", line=7, col=4, message="msg-b"),
    ]
    target = tmp_path / "baseline.json"
    save_baseline(str(target), findings)
    loaded = load_baseline(str(target))
    assert sorted(f.key() for f in loaded) == sorted(f.key() for f in findings)

    new, matched, stale = split_against_baseline(findings, loaded)
    assert (new, len(matched), stale) == ([], 2, [])

    # Pure line drift keeps matching: identity is (rule, path, message).
    drifted = [
        Finding(rule="RNG001", path="a.py", line=30, col=8, message="msg-a"),
        Finding(rule="SUP001", path="b.py", line=1, col=0, message="msg-b"),
    ]
    new, matched, stale = split_against_baseline(drifted, loaded)
    assert (new, len(matched), stale) == ([], 2, [])

    # A changed message is a new finding and leaves a stale entry behind.
    changed = [
        Finding(rule="RNG001", path="a.py", line=3, col=0, message="other"),
    ]
    new, matched, stale = split_against_baseline(changed, loaded)
    assert len(new) == 1 and matched == [] and len(stale) == 2


def test_malformed_baseline_is_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(str(bad))


# ----------------------------------------------------------------------
# Self-scan regression
# ----------------------------------------------------------------------
def test_self_scan_matches_committed_baseline():
    baseline = load_baseline(str(REPO_ROOT / ".analysis-baseline.json"))
    assert baseline == []
    result = analyze_paths(
        [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "benchmarks")]
    )
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    ]
    assert all(supp.reason for _, supp in result.suppressed)


# ----------------------------------------------------------------------
# Planted bugs in a scratch copy of the real engine
# ----------------------------------------------------------------------
_PLANT_UNSEEDED_RNG = """

scratch_rng = np.random.default_rng()
"""


def _scan_scratch_engine(tmp_path: Path, planted: str) -> list[Finding]:
    scratch = tmp_path / "repro" / "oram"
    scratch.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "oram" / "path_oram.py").read_text(
        encoding="utf-8"
    )
    copy = scratch / "path_oram.py"
    copy.write_text(source + planted, encoding="utf-8")
    return analyze_paths([str(copy)]).findings


def test_unmodified_scratch_copy_is_clean(tmp_path):
    assert _scan_scratch_engine(tmp_path, "") == []


def test_planted_unseeded_generator_is_caught(tmp_path):
    findings = _scan_scratch_engine(tmp_path, _PLANT_UNSEEDED_RNG)
    assert findings, "planted RNG001 bug went undetected"
    assert {f.rule for f in findings} == {"RNG001"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n", encoding="utf-8")

    assert cli_main([str(clean)]) == 0
    assert cli_main([str(dirty)]) == 1
    assert cli_main([str(clean), "--baseline", str(tmp_path / "missing.json")]) == 2

    baseline = tmp_path / "baseline.json"
    assert (
        cli_main([str(dirty), "--baseline", str(baseline), "--write-baseline"])
        == 0
    )
    assert cli_main([str(dirty), "--baseline", str(baseline)]) == 0

    # The analyzer runs every rule it has: a `--rules` selection, which
    # older callers passed, is a usage error, not a traceback.
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli_main([str(clean), "--rules", "OBL001"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --rules OBL001" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n", encoding="utf-8")
    assert cli_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_findings"][0]["rule"] == "RNG001"
    assert payload["new_findings"][0]["line"] == 1


def test_module_invocation_smoke(tmp_path):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(clean)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 new finding(s)" in proc.stdout
