"""Intraprocedural taint walk for the obliviousness rules.

A deliberately simple forward dataflow over one function body:

* **Sources** come from the module manifest
  (:class:`~repro.analysis.manifests.ModuleSources`): secret parameters,
  secret attribute suffixes (position-map leaf arrays, the stash's table)
  and secret-returning calls (position-map lookups).  Each source yields a
  label (``param:block_id``, ``call:position_map.leaf_access``, ...) and
  labels propagate through assignments, arithmetic, subscripts, calls and
  container poisoning.
* **Label classes** encode the threat model: ``param:`` labels are
  *content-secret* — the values are secret but their count is public (a
  trace's length is observable anyway), so ``len()`` of a parameter and
  iteration over one are public; ``attr:``/``call:`` labels are *fully*
  secret — ``len(stash_map)`` is the stash occupancy, which is exactly the
  signal background eviction leaks.
* **Declassifiers**: the protocol reveals the leaf it reads a path for, so
  after a manifest-listed path-read call the leaf argument's taint is
  cleared.
* **Sinks** are reported as :class:`TaintSink` events; the rule layer maps
  them to OBL001 (branches) and OBL002 (loop bounds, observable-container
  indices) and applies hot-function scoping.

Limitations (documented, deliberate): no interprocedural propagation, no
implicit flows (a counter incremented under a tainted guard stays clean),
loop bodies are walked twice as a cheap fixpoint.  The rules are tripwires
that force a human-written reason at each reveal site, not a verifier.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.manifests import ModuleSources

Labels = frozenset[str]
EMPTY: Labels = frozenset()

#: Calls whose results never carry taint (type dispatch, not contents).
_SANITIZERS = frozenset({"isinstance", "type", "callable", "hasattr"})

#: Calls whose result size/length is public even over secret contents.
_SIZE_ONLY = frozenset({"len"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _suffix_match(dotted: str, suffix: str) -> bool:
    """True when ``dotted`` ends with ``suffix`` on a dot boundary."""
    if dotted == suffix:
        return True
    return dotted.endswith("." + suffix)


@dataclass(frozen=True)
class TaintSink:
    """One tainted value reaching an observable decision point."""

    #: "if" | "ifexp" | "comp_if" | "while" | "for" | "subscript"
    kind: str
    line: int
    col: int
    labels: Labels
    qualname: str
    #: For "if": whether the guarded body holds break/continue/return/raise.
    early_exit: bool = False
    #: For "subscript": the observable container's name.
    container: str = ""


@dataclass
class FunctionTaint:
    """Result of walking one function."""

    qualname: str
    sinks: list[TaintSink] = field(default_factory=list)


def _only_params(labels: Labels) -> bool:
    return bool(labels) and all(lb.startswith("param:") for lb in labels)


class _Walker:
    def __init__(
        self,
        sources: ModuleSources,
        observable: frozenset[str],
        qualname: str,
        results: list[FunctionTaint],
    ):
        self.sources = sources
        self.observable = observable
        self.qualname = qualname
        self.env: dict[str, Labels] = {}
        self.out = FunctionTaint(qualname=qualname)
        self.results = results
        results.append(self.out)
        self._sink_seen: set[tuple[str, int, int]] = set()

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def _emit(self, kind: str, node: ast.AST, labels: Labels, **kw) -> None:
        key = (kind, node.lineno, node.col_offset)
        if key in self._sink_seen:
            return
        self._sink_seen.add(key)
        self.out.sinks.append(
            TaintSink(
                kind=kind,
                line=node.lineno,
                col=node.col_offset,
                labels=labels,
                qualname=self.qualname,
                **kw,
            )
        )

    # ------------------------------------------------------------------
    # Expression taint
    # ------------------------------------------------------------------
    def _source_attr(self, dotted: str) -> Labels:
        for suffix in self.sources.attrs:
            if _suffix_match(dotted, suffix):
                return frozenset({f"attr:{suffix}"})
        return EMPTY

    def _source_call(self, dotted: str) -> Labels:
        for suffix in self.sources.calls:
            if _suffix_match(dotted, suffix):
                return frozenset({f"call:{suffix}"})
        return EMPTY

    def taint(self, node: Optional[ast.AST]) -> Labels:
        if node is None:
            return EMPTY
        method = getattr(self, f"_taint_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Generic fallback: union over child expressions.
        out: Labels = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taint(child)
        return out

    def _taint_Name(self, node: ast.Name) -> Labels:
        return self.env.get(node.id, EMPTY)

    def _taint_Attribute(self, node: ast.Attribute) -> Labels:
        dotted = dotted_name(node)
        if dotted is not None:
            hit = self.env.get(dotted)
            if hit is not None:
                return hit
            src = self._source_attr(dotted)
            if src:
                return src
        return self.taint(node.value)

    def _taint_Subscript(self, node: ast.Subscript) -> Labels:
        self._check_subscript_sink(node)
        return self.taint(node.value) | self.taint(node.slice)

    def _taint_Call(self, node: ast.Call) -> Labels:
        func_dotted = dotted_name(node.func)
        arg_taint: Labels = EMPTY
        for arg in node.args:
            arg_taint |= self.taint(arg)
        for kw in node.keywords:
            arg_taint |= self.taint(kw.value)
        result: Labels
        if func_dotted is not None and func_dotted in _SANITIZERS:
            result = EMPTY
        elif func_dotted is not None and func_dotted in _SIZE_ONLY:
            # len() of content-secret params is public; of fully secret
            # containers it is the (secret) occupancy.
            result = frozenset(
                lb for lb in arg_taint if not lb.startswith("param:")
            )
        else:
            result = arg_taint | self.taint(node.func)
            if func_dotted is not None:
                src = self._source_call(func_dotted)
                if src:
                    result = result | src
        if func_dotted is not None:
            self._apply_declassifier(func_dotted, node)
        return result

    def _taint_IfExp(self, node: ast.IfExp) -> Labels:
        test = self.taint(node.test)
        if test:
            self._emit("ifexp", node, test)
        return test | self.taint(node.body) | self.taint(node.orelse)

    def _taint_Lambda(self, node: ast.Lambda) -> Labels:
        return EMPTY

    def _taint_ListComp(self, node: ast.ListComp) -> Labels:
        return self._taint_comp(node, [node.elt])

    def _taint_SetComp(self, node: ast.SetComp) -> Labels:
        return self._taint_comp(node, [node.elt])

    def _taint_GeneratorExp(self, node: ast.GeneratorExp) -> Labels:
        return self._taint_comp(node, [node.elt])

    def _taint_DictComp(self, node: ast.DictComp) -> Labels:
        return self._taint_comp(node, [node.key, node.value])

    def _taint_comp(self, node, elts: list[ast.expr]) -> Labels:
        out: Labels = EMPTY
        for gen in node.generators:
            iter_taint = self.taint(gen.iter)
            self._bind(gen.target, iter_taint)
            out |= iter_taint
            for cond in gen.ifs:
                cond_taint = self.taint(cond)
                if cond_taint:
                    self._emit("comp_if", cond, cond_taint)
                out |= cond_taint
        for elt in elts:
            out |= self.taint(elt)
        return out

    # ------------------------------------------------------------------
    def _check_subscript_sink(self, node: ast.Subscript) -> None:
        base = dotted_name(node.value)
        if base is None:
            return
        bare = base.rsplit(".", 1)[-1]
        if bare not in self.observable:
            return
        index_taint = self.taint(node.slice)
        if index_taint:
            self._emit("subscript", node, index_taint, container=bare)

    def _apply_declassifier(self, func_dotted: str, node: ast.Call) -> None:
        for decl in self.sources.declassifiers:
            if not _suffix_match(func_dotted, decl.suffix):
                continue
            for pos in decl.positions:
                if pos < len(node.args) and isinstance(node.args[pos], ast.Name):
                    self.env.pop(node.args[pos].id, None)
            return

    # ------------------------------------------------------------------
    # Assignment / binding
    # ------------------------------------------------------------------
    def _bind(self, target: ast.AST, labels: Labels) -> None:
        if isinstance(target, ast.Name):
            if labels:
                self.env[target.id] = labels
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)
        elif isinstance(target, ast.Subscript):
            # Writing through a container poisons the container with both
            # the key's and the value's taint.
            self._check_subscript_sink(target)
            extra = labels | self.taint(target.slice)
            base = dotted_name(target.value)
            if base is not None and extra:
                root = base.split(".", 1)[0]
                self.env[root] = self.env.get(root, EMPTY) | extra
                if base != root:
                    self.env[base] = self.env.get(base, EMPTY) | extra
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                if labels:
                    self.env[dotted] = labels
                else:
                    self.env.pop(dotted, None)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self.taint(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.taint(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            labels = self.taint(stmt.value)
            if isinstance(stmt.target, ast.Name):
                labels |= self.env.get(stmt.target.id, EMPTY)
            elif isinstance(stmt.target, (ast.Attribute, ast.Subscript)):
                labels |= self.taint(stmt.target)
            self._bind(stmt.target, labels)
        elif isinstance(stmt, ast.If):
            test = self.taint(stmt.test)
            if test:
                self._emit(
                    "if", stmt, test, early_exit=_has_early_exit(stmt.body)
                )
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            test = self.taint(stmt.test)
            if test and not _only_params(test):
                self._emit("while", stmt, test)
            # Two passes approximate the loop fixpoint (taint introduced at
            # the bottom of the body reaches uses at the top).
            self.exec_block(stmt.body)
            self.taint(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_taint = self.taint(stmt.iter)
            if iter_taint and not _only_params(iter_taint):
                self._emit("for", stmt, iter_taint)
            self._bind(stmt.target, iter_taint)
            self.exec_block(stmt.body)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                ctx_taint = self.taint(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, ctx_taint)
            self.exec_block(stmt.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _Walker(
                self.sources,
                self.observable,
                f"{self.qualname}.<locals>.{stmt.name}",
                self.results,
            )
            nested.env = dict(self.env)
            nested.seed_params(stmt)
            nested.exec_block(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, (ast.Return, ast.Expr, ast.Raise, ast.Assert,
                               ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.taint(child)
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to do.

    def seed_params(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = func.args
        every = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        for arg in every:
            if arg.arg in self.sources.params:
                self.env[arg.arg] = frozenset({f"param:{arg.arg}"})


def _has_early_exit(body: list[ast.stmt]) -> bool:
    """Shallow scan: does the guarded body break/continue/return/raise?"""
    for stmt in body:
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Return, ast.Raise)):
            return True
    return False


def walk_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    sources: ModuleSources,
    observable: frozenset[str],
) -> list[FunctionTaint]:
    """Taint-walk one function (and its nested functions).

    Returns one :class:`FunctionTaint` per function scope encountered,
    outermost first.  Nested functions inherit a copy of the enclosing
    environment at their definition point (a closure over the kernel's
    locals captures tainted state).
    """
    results: list[FunctionTaint] = []
    walker = _Walker(sources, observable, qualname, results)
    walker.seed_params(func)
    walker.exec_block(func.body)
    return results
