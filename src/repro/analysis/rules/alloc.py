"""ALLOC001 — allocation in the fused zero-allocation hot paths.

PR 8's fused trace drivers carry a measured contract: zero steady-state
allocation, enforced at runtime by a tracemalloc zero-growth bound in
``tests/test_fused_trace.py``.  This rule enforces it at the source level
for the functions in the ``alloc_hot_functions`` manifest, catching an
accidental comprehension or ``np.zeros`` the moment it is written instead
of when the tracemalloc bound flakes.

Two granularities, per manifest entry:

* ``"body"`` — per-access leaf helpers (``OverlayRowStore.get`` and
  ``__setitem__``): the whole body is steady state.
* ``"loops"`` — the trace kernel (``_run_bins``): setup before the
  access loop may allocate freely; code lexically inside a loop may not.

Flagged constructs: comprehensions and generator expressions, numpy
constructor calls (``np.zeros``/``empty``/``concatenate``/...), builtin
container constructors (``list``/``dict``/``set``/``tuple``/``sorted``),
non-empty list/set/dict display literals, and tuple-growing augmented
assignments.  Amortized allocations that are part of the measured design
(the RNG refill's ``tolist``) are not in the banned set; anything else
needs an inline ``# oblivious: allow[ALLOC001] reason``.
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
from repro.analysis.taint import dotted_name

_NP_CONSTRUCTORS = frozenset(
    {
        "zeros", "empty", "ones", "full", "array", "asarray",
        "ascontiguousarray", "arange", "linspace", "concatenate", "stack",
        "vstack", "hstack", "column_stack", "tile", "repeat", "fromiter",
        "copy", "zeros_like", "empty_like", "ones_like", "full_like",
        "unique", "where", "argsort", "bincount",
    }
)
_BUILTIN_CONSTRUCTORS = frozenset({"list", "dict", "set", "tuple", "sorted"})
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_np_constructor(dotted: str) -> bool:
    parts = dotted.split(".")
    return (
        len(parts) == 2
        and parts[0] in ("np", "numpy")
        and parts[1] in _NP_CONSTRUCTORS
    )


class _AllocVisitor(ast.NodeVisitor):
    """Collect banned allocation sites within one manifest scope."""

    def __init__(self, granularity: str):
        self.granularity = granularity
        self.loop_depth = 0
        self.hits: list[tuple[ast.AST, str]] = []

    def _armed(self) -> bool:
        return self.granularity == "body" or self.loop_depth > 0

    # -- scope control --------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested functions are separate scopes (listed separately if hot);
        # the engine drivers' sync closures run on exit paths, not per
        # access.
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def _visit_loop(self, node) -> None:
        # The iterable/test is evaluated per iteration for while, once for
        # for-loops; treat both as part of the loop for simplicity.
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop

    # -- banned constructs ----------------------------------------------
    def _ban(self, node: ast.AST, what: str) -> None:
        if self._armed():
            self.hits.append((node, what))

    def visit_ListComp(self, node) -> None:
        self._ban(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node) -> None:
        self._ban(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node) -> None:
        self._ban(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node) -> None:
        self._ban(node, "generator expression")
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        if node.elts and isinstance(node.ctx, ast.Load):
            self._ban(node, "list literal")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._ban(node, "set literal")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if node.keys:
            self._ban(node, "dict literal")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            if _is_np_constructor(dotted):
                self._ban(node, f"numpy allocation {dotted}()")
            elif dotted in _BUILTIN_CONSTRUCTORS:
                self._ban(node, f"container construction {dotted}()")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Add) and isinstance(node.value, ast.Tuple):
            self._ban(node, "tuple-growing augmented assignment")
        self.generic_visit(node)


@register_rule
class HotPathAllocationRule(Rule):
    rule_id = "ALLOC001"
    title = "allocation in a fused zero-allocation hot path"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        scopes = config.alloc_scopes_for(module.path)
        if not scopes:
            return
        qualnames = build_qualnames(module.tree)
        for node, qual in qualnames.items():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for scope in scopes:
                if fnmatchcase(qual, scope.qualname):
                    granularity = scope.granularity
                    break
            else:
                continue
            visitor = _AllocVisitor(granularity)
            for stmt in node.body:
                visitor.visit(stmt)
            where = (
                "steady-state loop" if granularity == "loops" else "hot body"
            )
            for hit, what in visitor.hits:
                yield Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=hit.lineno,
                    col=hit.col_offset,
                    message=(
                        f"{what} in the {where} of {qual} breaks the "
                        "zero-allocation contract (PR 8 tracemalloc bound)"
                    ),
                    qualname=qual,
                )
