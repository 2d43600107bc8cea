"""Tests for the static analysis framework (``repro.analysis``).

Three layers:

* Fixture corpus — every ``tests/analysis_fixtures/*.py`` file carries
  ``EXPECT`` markers naming the exact rule and line the analyzer must
  report; good fixtures carry none and must come back clean.
* Self-scan regression — ``src/repro`` + ``benchmarks`` under the default
  manifest must match the committed (empty) baseline, with zero findings
  in ``src/repro/oram/``.
* Planted bugs — a scratch copy of the real engine under a temp
  ``repro/oram/`` directory (so suffix matching applies the real
  manifest) with a planted secret branch / unseeded RNG / hot-path
  allocation / unguarded flush must be caught.
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
    AllocScope,
    AnalysisConfig,
    Declassifier,
    Finding,
    ModuleSources,
    analyze_paths,
    default_config,
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


def fixture_config() -> AnalysisConfig:
    """The manifest the fixture corpus is analyzed under."""
    sources = ModuleSources(
        params=frozenset({"block_id", "block_ids"}),
        attrs=frozenset({"position_map.leaves", "stash"}),
        calls=frozenset({"position_map.update"}),
        declassifiers=(Declassifier("read_path", (0,)),),
    )
    return AnalysisConfig(
        sources={
            "analysis_fixtures/obl_bad.py": sources,
            "analysis_fixtures/obl_good.py": sources,
        },
        obl_hot_functions={
            "analysis_fixtures/obl_bad.py": ("*",),
            "analysis_fixtures/obl_good.py": ("*",),
        },
        observable_containers=frozenset({"slots", "occ"}),
        alloc_hot_functions={
            "analysis_fixtures/alloc_bad.py": (
                AllocScope("hot_helper", "body"),
                AllocScope("Driver.run_trace", "loops"),
            ),
            "analysis_fixtures/alloc_good.py": (
                AllocScope("hot_helper", "body"),
                AllocScope("Driver.run_trace", "loops"),
            ),
        },
        fused_drivers={
            "analysis_fixtures/cnt_bad.py": ("*._run_trace_fused",),
            "analysis_fixtures/cnt_good.py": ("*._run_trace_fused",),
        },
        rng_allowed_modules=("repro/utils/rng.py",),
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
    result = analyze_paths([str(FIXTURES)], fixture_config())
    got = {(Path(f.path).name, f.line, f.rule) for f in result.findings}
    assert got == expected


@pytest.mark.parametrize(
    "name, rule",
    [
        ("obl_bad.py", "OBL001"),
        ("obl_bad.py", "OBL002"),
        ("rng_bad.py", "RNG001"),
        ("alloc_bad.py", "ALLOC001"),
        ("cnt_bad.py", "CNT001"),
        ("suppression.py", "SUP001"),
    ],
)
def test_bad_fixture_triggers_rule(name, rule):
    result = analyze_paths([str(FIXTURES / name)], fixture_config())
    assert any(f.rule == rule for f in result.findings), (
        f"{name} should trigger {rule}; got "
        f"{[(f.rule, f.line) for f in result.findings]}"
    )


@pytest.mark.parametrize(
    "name",
    ["obl_good.py", "rng_good.py", "alloc_good.py", "cnt_good.py"],
)
def test_good_fixture_is_clean(name):
    result = analyze_paths([str(FIXTURES / name)], fixture_config())
    assert result.findings == []


def test_valid_suppressions_are_recorded_with_reasons():
    result = analyze_paths([str(FIXTURES / "suppression.py")], fixture_config())
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
        Finding(rule="OBL001", path="b.py", line=7, col=4, message="msg-b"),
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
        Finding(rule="OBL001", path="b.py", line=1, col=0, message="msg-b"),
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
    from repro.analysis import AnalysisError

    with pytest.raises(AnalysisError):
        load_baseline(str(bad))


# ----------------------------------------------------------------------
# Self-scan regression
# ----------------------------------------------------------------------
def test_self_scan_matches_committed_baseline():
    baseline = load_baseline(str(REPO_ROOT / ".analysis-baseline.json"))
    result = analyze_paths(
        [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "benchmarks")],
        default_config(),
    )
    new, _, _ = split_against_baseline(result.findings, baseline)
    assert new == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in new
    ]
    # Empty-baseline policy for the engine core: every finding there must be
    # fixed, inline-suppressed with a reason, or manifest-declassified.
    oram = [
        f
        for f in result.findings
        if "repro/oram/" in f.path.replace("\\", "/")
    ]
    assert oram == []
    # Inline allows are exercised by production code.  The write-back
    # planning the declassifications sanctioned is C now, outside the scan:
    # the allowlist's one entry states its reveal on the loader, and no
    # Python function is declassified.
    assert result.suppressed
    assert [(entry.module_suffix, entry.qualname)
            for entry in default_config().declassifications] == [
        ("repro/oram/native.py", "load")
    ]
    assert result.declassified == []
    assert all(supp.reason for _, supp in result.suppressed)


# ----------------------------------------------------------------------
# Planted bugs in a scratch copy of the real engine
# ----------------------------------------------------------------------
_PLANT_SECRET_BRANCH = '''

class PathORAM:
    def access(self, block_id):
        if block_id > 128:
            return None
        return block_id
'''

#: ``fetch`` is a path read and reveals its leaf; the trusted-setup
#: ``remove_many`` is observed by nobody and reveals nothing.
_PLANT_SETUP_MOVE_AS_REVEAL = '''

class PathORAM:
    def access(self, block_id):
        leaf = self.position_map.update(block_id, self._draw_leaf())
        self.tree.remove_many(block_id, leaf)
        if leaf > 3:
            return None
        return block_id
'''

_PLANT_UNSEEDED_RNG = """

scratch_rng = np.random.default_rng()
"""

_PLANT_HOT_ALLOCATION = '''

class OverlayRowStore:
    def get(self, block_id):
        rows = [key for key in self._index]
        return rows
'''

_PLANT_UNGUARDED_FLUSH = '''

class PathORAM:
    def _run_bins(self, bins, counter):
        logical = 0
        for _bin in bins:
            logical += 1
        counter.add_bulk(logical)
'''

_PLANT_NO_FLUSH = '''

class PathORAM:
    def _run_bins(self, bins, counter):
        logical = 0
        for _bin in bins:
            logical += 1
        return logical
'''


def _scan_scratch_engine(
    tmp_path: Path, planted: str, module: str = "path_oram.py"
) -> list[Finding]:
    scratch = tmp_path / "repro" / "oram"
    scratch.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "oram" / module).read_text(
        encoding="utf-8"
    )
    copy = scratch / module
    copy.write_text(source + planted, encoding="utf-8")
    return analyze_paths([str(copy)], default_config()).findings


def test_unmodified_scratch_copy_is_clean(tmp_path):
    assert _scan_scratch_engine(tmp_path, "") == []


@pytest.mark.parametrize(
    "planted, rule, module",
    [
        (_PLANT_SECRET_BRANCH, "OBL001", "path_oram.py"),
        (_PLANT_SETUP_MOVE_AS_REVEAL, "OBL001", "path_oram.py"),
        (_PLANT_UNSEEDED_RNG, "RNG001", "path_oram.py"),
        # The payload read a PathORAM trace calls once per access.
        (_PLANT_HOT_ALLOCATION, "ALLOC001", "row_store.py"),
        (_PLANT_UNGUARDED_FLUSH, "CNT001", "path_oram.py"),
        (_PLANT_NO_FLUSH, "CNT001", "path_oram.py"),
    ],
)
def test_planted_bug_is_caught(tmp_path, planted, rule, module):
    findings = _scan_scratch_engine(tmp_path, planted, module)
    assert findings, f"planted {rule} bug went undetected"
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize(
    "module, old, new, tables",
    [
        # The kernel's binder renamed (or moved to another module): the
        # list that arms CNT001 on its counter flush names nothing.
        (
            "path_oram.py",
            "def _run_bins(",
            "def _run_moved_bins(",
            {"fused_drivers"},
        ),
        # An entry point renamed: the OBL rules stop looking at it.
        (
            "path_oram.py",
            "def dummy_access(",
            "def dummy_read(",
            {"obl_hot_functions"},
        ),
        # A per-access helper renamed: its allocation scope goes stale.
        (
            "row_store.py",
            "def get(",
            "def get_row(",
            {"alloc_hot_functions"},
        ),
        # The native kernels' loader renamed: the allowlist entry that
        # states their reveal goes stale.
        (
            "native.py",
            "def load(",
            "def load_kernels(",
            {"declassifications"},
        ),
    ],
)
def test_stale_manifest_entry_is_caught(tmp_path, module, old, new, tables):
    scratch = tmp_path / "repro" / "oram"
    scratch.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "oram" / module).read_text(
        encoding="utf-8"
    )
    assert source.count(old) == 1
    (scratch / module).write_text(source.replace(old, new), encoding="utf-8")
    findings = analyze_paths([str(scratch / module)], default_config()).findings
    assert {f.rule for f in findings} == {"MAN001"}
    assert {f.message.split()[0] for f in findings} == tables


def test_path_read_declassifies_where_the_setup_move_does_not(tmp_path):
    read = _PLANT_SETUP_MOVE_AS_REVEAL.replace(
        "self.tree.remove_many(block_id, leaf)",
        "fetch(stash_map, caps, level_base, node_base, slots, occ, depth, tags, leaf)",
    )
    assert read != _PLANT_SETUP_MOVE_AS_REVEAL
    assert _scan_scratch_engine(tmp_path, read) == []


@pytest.mark.parametrize(
    "call, revealed",
    [
        # The call the trace kernel and the recursion walk make.
        ("fetch(stash_map, caps, level_base, node_base, slots, occ, depth, tags, leaf)",
         True),
        # The leaf is the fetch's ninth argument, not any argument.
        ("fetch(leaf, caps, level_base, node_base, slots, occ, depth, tags, block_id)",
         False),
    ],
)
def test_the_fetch_declassifies_its_leaf_argument(tmp_path, call, revealed):
    read = _PLANT_SETUP_MOVE_AS_REVEAL.replace(
        "self.tree.remove_many(block_id, leaf)", call
    )
    assert read != _PLANT_SETUP_MOVE_AS_REVEAL
    findings = _scan_scratch_engine(tmp_path, read)
    assert {f.rule for f in findings} == (set() if revealed else {"OBL001"})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path):
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


def test_cli_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n", encoding="utf-8")
    assert cli_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_findings"][0]["rule"] == "RNG001"
    assert payload["new_findings"][0]["line"] == 1


def test_cli_rule_selection(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n", encoding="utf-8")
    assert cli_main([str(dirty), "--rules", "CNT001"]) == 0
    assert cli_main([str(dirty), "--rules", "RNG001"]) == 1


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
