"""Static obliviousness & hot-path invariant analysis for the ORAM engine.

Stdlib-only (``ast``) lint framework enforcing the repository's security
and performance contracts at the source level:

* OBL001/OBL002 — no secret-dependent branches, loop bounds or observable
  indices in engine hot paths (intraprocedural taint walk from per-module
  source manifests).
* RNG001 — all randomness flows through :mod:`repro.utils.rng`.
* ALLOC001 — the per-access payload helpers allocate only where an allow says so.
* CNT001 — the request kernel's binder flushes deferred counters on all exit paths.
* MAN001 — every manifest entry names a function of its module.

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
from repro.analysis.manifests import (
    AllocScope,
    AnalysisConfig,
    Declassification,
    Declassifier,
    ModuleSources,
    default_config,
)

__all__ = [
    "AllocScope",
    "AnalysisConfig",
    "AnalysisError",
    "AnalysisResult",
    "DEFAULT_BASELINE",
    "Declassification",
    "Declassifier",
    "Finding",
    "ModuleSources",
    "RULE_REGISTRY",
    "Rule",
    "SourceModule",
    "all_rules",
    "analyze_module",
    "analyze_paths",
    "default_config",
    "load_baseline",
    "parse_module",
    "register_rule",
    "save_baseline",
    "split_against_baseline",
]
