"""MAN001 — a manifest entry that names no function in its module.

The hot-function lists (``obl_hot_functions``, ``alloc_hot_functions``),
the ``fused_drivers`` list and the ``declassifications`` allowlist name
functions by qualname pattern.  An entry whose function was moved, renamed
or deleted matches nothing, and the rule it arms stops looking without a
word: a kernel moved to another module leaves OBL001/OBL002, ALLOC001 and
CNT001 behind while the scan still reads "0 new finding(s)".  This rule
reports, for every scanned module, each entry keyed to it that matches none
of its functions.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    SourceModule,
    build_qualnames,
    register_rule,
)


@register_rule
class StaleManifestEntryRule(Rule):
    rule_id = "MAN001"
    title = "manifest entry naming no function in its module"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        path = module.path.replace("\\", "/")
        entries = [
            ("obl_hot_functions", pattern) for pattern in config.obl_hot_for(path)
        ]
        entries += [
            ("alloc_hot_functions", scope.qualname)
            for scope in config.alloc_scopes_for(path)
        ]
        entries += [
            ("fused_drivers", pattern) for pattern in config.fused_drivers_for(path)
        ]
        entries += [
            ("declassifications", entry.qualname)
            for entry in config.declassifications
            if path.endswith(entry.module_suffix)
        ]
        functions = [
            qual
            for node, qual in build_qualnames(module.tree).items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for table, pattern in entries:
            if not any(fnmatchcase(qual, pattern) for qual in functions):
                yield Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=1,
                    col=0,
                    message=(
                        f"{table} entry {pattern!r} names no function in this "
                        "module; the rules it arms no longer look at it"
                    ),
                )
