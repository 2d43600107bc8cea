"""CNT001 — fused drivers must flush deferred counts on every exit path.

The fused trace drivers defer their accounting: per-access tallies
accumulate in locals and are folded into the counters once, via
``TrafficCounter.add_bulk``.  If the flush is not in a ``finally`` block,
an exception mid-trace (or an early return) loses the accumulated traffic,
and with it the simulated time priced from it, and every downstream
accounting assertion silently compares against a short count.

The rule checks each manifest ``fused_drivers`` function for a ``try``
statement whose ``finally`` calls ``.add_bulk(...)``, directly or in a
function defined locally inside the driver (a ``sync_out`` closure).
Drivers with no flush at all are also flagged.
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

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _flushes(nodes, local: dict) -> bool:
    """Whether ``nodes`` fold deferred counts into the counters."""
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "add_bulk":
                return True
            if isinstance(func, ast.Name) and local.get(func.id):
                return True
    return False


@register_rule
class DeferredCounterFlushRule(Rule):
    rule_id = "CNT001"
    title = "fused driver without a finally-guarded counter flush"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        driver_patterns = config.fused_drivers_for(module.path)
        for node, qual in build_qualnames(module.tree).items():
            if not isinstance(node, _FUNCTIONS):
                continue
            if not any(fnmatchcase(qual, p) for p in driver_patterns):
                continue
            message = self._driver_message(node, qual)
            if message is not None:
                yield Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    qualname=qual,
                )

    @staticmethod
    def _driver_message(fn, qual: str):
        """What is wrong with driver ``fn``'s flush, or ``None``."""
        local = {
            sub.name: _flushes(sub.body, {})
            for sub in ast.walk(fn)
            if isinstance(sub, _FUNCTIONS) and sub is not fn
        }
        if any(
            _flushes(sub.finalbody, local)
            for sub in ast.walk(fn)
            if isinstance(sub, ast.Try) and sub.finalbody
        ):
            return None
        if _flushes(fn.body, local):
            return (
                f"fused driver {qual} flushes deferred counters outside "
                "a finally block; an exception mid-trace loses the "
                "accumulated traffic"
            )
        return (
            f"fused driver {qual} opens a deferred counter block but "
            "never flushes via add_bulk; accumulated traffic is lost"
        )
