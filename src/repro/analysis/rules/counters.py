"""CNT001 — fused drivers must flush deferred counters on every exit path.

The fused trace drivers defer their counter updates: per-access tallies
accumulate in locals and are written back once via
``TrafficCounter.add_bulk``.  If the flush is not in a ``finally`` block, an exception
mid-trace (or an early return) loses the accumulated traffic and every
downstream accounting assertion silently compares against a short count.

The rule checks each manifest ``fused_drivers`` function for a ``try``
statement whose ``finally`` either calls ``.add_bulk(...)`` directly or
calls a function defined locally inside the driver whose body does (the
engine's ``sync_out`` closure pattern).  Drivers with no flush at all are
also flagged.
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


def _calls_add_bulk(nodes) -> bool:
    for node in nodes:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "add_bulk"
            ):
                return True
    return False


def _local_flushers(fn: ast.AST) -> set[str]:
    """Names of functions defined inside ``fn`` whose bodies call add_bulk."""
    flushers: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            if _calls_add_bulk(node.body):
                flushers.add(node.name)
    return flushers


def _finalbody_flushes(finalbody, flushers: set[str]) -> bool:
    if _calls_add_bulk(finalbody):
        return True
    for node in finalbody:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in flushers
            ):
                return True
    return False


@register_rule
class DeferredCounterFlushRule(Rule):
    rule_id = "CNT001"
    title = "fused driver without a finally-guarded counter flush"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        driver_patterns = config.fused_drivers_for(module.path)
        if not driver_patterns:
            return
        qualnames = build_qualnames(module.tree)
        for node, qual in qualnames.items():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(fnmatchcase(qual, p) for p in driver_patterns):
                continue
            flushers = _local_flushers(node)
            has_any_flush = _calls_add_bulk(node.body)
            tries = [
                sub for sub in ast.walk(node) if isinstance(sub, ast.Try)
            ]
            guarded = any(
                sub.finalbody and _finalbody_flushes(sub.finalbody, flushers)
                for sub in tries
            )
            if guarded:
                continue
            if not has_any_flush and not flushers:
                message = (
                    f"fused driver {qual} opens a deferred counter block but "
                    "never flushes via add_bulk; accumulated traffic is lost"
                )
            else:
                message = (
                    f"fused driver {qual} flushes deferred counters outside "
                    "a finally block; an exception mid-trace loses the "
                    "accumulated traffic"
                )
            yield Finding(
                rule=self.rule_id,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                qualname=qual,
            )
