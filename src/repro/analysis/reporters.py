"""Text and JSON reporters for analysis results."""

from __future__ import annotations

import json
from typing import IO

from repro.analysis.core import AnalysisResult, Finding


def _finding_dict(finding: Finding) -> dict:
    out = {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }
    if finding.qualname:
        out["qualname"] = finding.qualname
    return out


def report_text(
    result: AnalysisResult,
    stream: IO[str],
    new_findings: list[Finding],
    baselined: list[Finding],
) -> None:
    for finding in new_findings:
        stream.write(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.message}\n"
        )
    summary = (
        f"{result.files_scanned} files scanned, "
        f"{len(new_findings)} new finding(s), "
        f"{len(baselined)} baselined, "
        f"{len(result.suppressed)} suppressed inline"
    )
    stream.write(summary + "\n")


def report_json(
    result: AnalysisResult,
    stream: IO[str],
    new_findings: list[Finding],
    baselined: list[Finding],
) -> None:
    payload = {
        "files_scanned": result.files_scanned,
        "new_findings": [_finding_dict(f) for f in new_findings],
        "baselined": [_finding_dict(f) for f in baselined],
        "suppressed": [
            {**_finding_dict(f), "reason": s.reason}
            for f, s in result.suppressed
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


REPORTERS = {"text": report_text, "json": report_json}
