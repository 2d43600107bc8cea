"""``compare A.json B.json``: a verdict per workload x end-to-end metric.

``A`` is the baseline (the parent commit), ``B`` the candidate.  A metric is
``worse`` when the candidate's value is worse than the baseline's by more
than the bound ``BENCHMARK.json`` fixes for it, ``better`` when it improved
by more than the bound, ``same`` otherwise -- and ``unresolved`` when the
repeats inside either run spread wider than the bound and the two runs'
repeats overlap, because then one value each cannot tell a change from noise.
"""

from __future__ import annotations

import json
import sys

from benchmarks.suite.harness import load_spec, relative_spread

#: Provenance fields that must match for two result files to be comparable.
#: The commit is the thing being compared, so it is allowed to differ.
COMPARABLE_FIELDS = ("python", "numpy", "nproc", "seed", "seconds", "sizes")


def verdict(base_value: float, cand_value: float, base_repeats: list[float],
            cand_repeats: list[float], better: str, bound: float) -> str:
    """Verdict for one metric from the two runs' values and per-repeat readings."""
    # Flip higher-is-better metrics so that "larger" always means "worse".
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (cand_value - base_value) / abs(base_value) if base_value else 0.0
    if max(relative_spread(base_repeats), relative_spread(cand_repeats)) > bound:
        # Too noisy for one value each: only a clean separation of every
        # repeat of one run from every repeat of the other counts.
        base = [sign * value for value in base_repeats]
        cand = [sign * value for value in cand_repeats]
        if change > bound and min(cand) > max(base):
            return "worse"
        if change < -bound and max(cand) < min(base):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare_results(baseline: dict, candidate: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and exit status (1 on any ``worse``, 2 if not comparable)."""
    mismatched = [
        field for field in COMPARABLE_FIELDS
        if baseline["provenance"].get(field) != candidate["provenance"].get(field)
    ]
    if mismatched:
        return ([f"refusing to compare: {field} differs "
                 f"({baseline['provenance'].get(field)!r} vs "
                 f"{candidate['provenance'].get(field)!r})" for field in mismatched], 2)
    lines = [f"baseline {baseline['provenance']['commit']}  "
             f"candidate {candidate['provenance']['commit']}"]
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        base = baseline["workloads"].get(workload, {}).get("trace0")
        cand = candidate["workloads"].get(workload, {}).get("trace0")
        if base is None or cand is None:
            lines.append(f"{workload}: missing from one file")
            status = 2
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            result = verdict(
                base["values"][name], cand["values"][name],
                base["samples"].get(name, ()), cand["samples"].get(name, ()),
                entry["better"], entry["bound"])
            if result == "worse":
                status = status or 1
            lines.append(
                f"{workload:18s} {name:20s} {base['values'][name]:14.6g} -> "
                f"{cand['values'][name]:14.6g} {entry['unit']:6s} "
                f"bound {entry['bound']:.2f}  {result}")
    return lines, status


def compare_files(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(candidate_path, encoding="utf-8") as handle:
        candidate = json.load(handle)
    lines, status = compare_results(baseline, candidate, load_spec())
    print("\n".join(lines), file=sys.stderr if status == 2 else sys.stdout)
    return status
