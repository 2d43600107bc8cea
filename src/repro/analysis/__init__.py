"""Source-level checks of what no other test of the repository checks.

Stdlib-only (``ast``) lint framework:

* RNG001 — all randomness flows through :mod:`repro.utils.rng`.
* SUP001 — every inline suppression parses and gives its reason.

The obliviousness, counter-flush and allocation rules it once ran went
when committed mutants (``tests/mutants``) showed the dynamic tests kill
every bug they were written for.

Run with ``python -m repro.analysis [paths] --baseline
.analysis-baseline.json``; see ``docs/static_analysis.md``.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    save_baseline,
    split_against_baseline,
)
from repro.analysis.core import (
    AnalysisError,
    AnalysisResult,
    Finding,
    Rule,
    RULE_REGISTRY,
    SourceModule,
    all_rules,
    analyze_module,
    analyze_paths,
    parse_module,
    register_rule,
)

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "DEFAULT_BASELINE",
    "Finding",
    "RULE_REGISTRY",
    "Rule",
    "SourceModule",
    "all_rules",
    "analyze_module",
    "analyze_paths",
    "load_baseline",
    "parse_module",
    "register_rule",
    "save_baseline",
    "split_against_baseline",
]
