"""Baseline files: accepted findings that do not fail the build.

A baseline records findings by ``(rule, path, message)`` — deliberately
not by line, so pure line drift (an unrelated edit above a baselined
finding) does not churn the file.  New findings are everything the current
run produced that the baseline does not cover; stale entries (baselined
findings that no longer occur) are reported so the file can be re-tightened
with ``--write-baseline``.

The committed baseline for this repo is ``.analysis-baseline.json`` and is
empty by policy: every finding is fixed or inline-suppressed with a reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.core import AnalysisError, Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE = ".analysis-baseline.json"


def load_baseline(path: str) -> list[Finding]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"malformed baseline {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("version") != BASELINE_VERSION:
        raise AnalysisError(
            f"baseline {path} has unsupported format "
            f"(expected version {BASELINE_VERSION})"
        )
    findings = []
    for entry in raw.get("findings", []):
        try:
            findings.append(
                Finding(
                    rule=entry["rule"],
                    path=entry["path"],
                    line=int(entry.get("line", 0)),
                    col=int(entry.get("col", 0)),
                    message=entry["message"],
                    qualname=entry.get("qualname", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"malformed baseline entry in {path}: {entry!r}"
            ) from exc
    return findings


def save_baseline(path: str, findings: list[Finding]) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                **({"qualname": f.qualname} if f.qualname else {}),
            }
            for f in sorted(findings, key=Finding.sort_key)
        ],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def split_against_baseline(
    findings: list[Finding], baseline: list[Finding]
) -> tuple[list[Finding], list[Finding], list[Finding]]:
    """Partition into (new, baselined, stale-baseline-entries)."""
    baseline_keys = {f.key() for f in baseline}
    current_keys = {f.key() for f in findings}
    new = [f for f in findings if f.key() not in baseline_keys]
    matched = [f for f in findings if f.key() in baseline_keys]
    stale = [f for f in baseline if f.key() not in current_keys]
    return new, matched, stale
