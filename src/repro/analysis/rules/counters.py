"""CNT001 — fused drivers must flush deferred counts on every exit path.

The fused trace drivers defer their accounting: per-access tallies
accumulate in locals and are written back once, the counters via
``TrafficCounter.add_bulk`` and the clock via ``TimingModel.charge_*`` with
the same counts.  If the flush is not in a ``finally`` block, an exception
mid-trace (or an early return) loses the accumulated traffic and every
downstream accounting assertion silently compares against a short count;
if the ``finally`` flushes the counters but not the clock, simulated time
falls behind the traffic it is the closed form of.

The rule checks each manifest ``fused_drivers`` function for a ``try``
statement whose ``finally`` flushes: it calls a manifest ``flush_helpers``
method (the engine's shared ``_flush_counts``, which does both halves), or
``.add_bulk(...)`` together with a ``.charge_*(...)``, directly or in a
function defined locally inside the driver (the engine's ``sync_out``
closure pattern).  Drivers with no flush at all are also flagged, and so
is a flush helper that does not do both halves itself.
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


def _flush_halves(nodes, helpers, local: dict) -> tuple[bool, bool]:
    """Whether ``nodes`` flush the counters, and the clock along with them."""
    counters = clock = False
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                if func.attr in helpers:
                    counters = clock = True
                elif func.attr == "add_bulk":
                    counters = True
                elif func.attr.startswith("charge_"):
                    clock = True
            elif isinstance(func, ast.Name) and func.id in local:
                counters |= local[func.id][0]
                clock |= local[func.id][1]
    return counters, clock


@register_rule
class DeferredCounterFlushRule(Rule):
    rule_id = "CNT001"
    title = "fused driver without a finally-guarded counter and clock flush"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        driver_patterns = config.fused_drivers_for(module.path)
        helpers = config.flush_helpers
        for node, qual in build_qualnames(module.tree).items():
            if not isinstance(node, _FUNCTIONS):
                continue
            message = None
            if node.name in helpers:
                if _flush_halves(node.body, (), {}) != (True, True):
                    message = (
                        f"flush helper {qual} must fold the deferred counts "
                        "into both the counters (add_bulk) and the clock "
                        "(charge_*)"
                    )
            elif any(fnmatchcase(qual, p) for p in driver_patterns):
                message = self._driver_message(node, qual, helpers)
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
    def _driver_message(fn, qual: str, helpers):
        """What is wrong with driver ``fn``'s flush, or ``None``."""
        local = {
            sub.name: _flush_halves(sub.body, helpers, {})
            for sub in ast.walk(fn)
            if isinstance(sub, _FUNCTIONS) and sub is not fn
        }
        guarded = [
            _flush_halves(sub.finalbody, helpers, local)
            for sub in ast.walk(fn)
            if isinstance(sub, ast.Try) and sub.finalbody
        ]
        flushing = [clock for counters, clock in guarded if counters]
        if flushing and all(flushing):
            return None
        if flushing:
            return (
                f"fused driver {qual} flushes deferred counters in a finally "
                "block that does not charge the clock with them; simulated "
                "time falls behind the counted traffic"
            )
        if _flush_halves(fn.body, helpers, local)[0]:
            return (
                f"fused driver {qual} flushes deferred counters outside "
                "a finally block; an exception mid-trace loses the "
                "accumulated traffic"
            )
        return (
            f"fused driver {qual} opens a deferred counter block but "
            "never flushes via add_bulk; accumulated traffic is lost"
        )
