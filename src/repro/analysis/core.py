"""Core of the source-level linter.

The framework is deliberately small and stdlib-only (``ast`` + ``re``):

* :class:`Finding` — one diagnostic, anchored to a file/line/column.
* :class:`SourceModule` — a parsed file: source text, AST and inline
  suppressions (``# oblivious: allow[RULE123] reason``).
* :class:`Rule` / :func:`register_rule` — the rule registry.  Rules yield
  raw findings; the driver applies inline suppressions centrally, so every
  rule gets them for free.
* :func:`analyze_paths` / :func:`analyze_module` — the drivers.

The analyzer is a *tripwire*, not a verifier: it forces every stray RNG
construction to either be fixed or carry a human-written reason at the
site.  See ``docs/static_analysis.md`` for what each rule guards.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

#: Matches one inline suppression.  Reason text is mandatory: a suppression
#: that silences a rule without saying why is itself reported (SUP001).
_SUPPRESS_RE = re.compile(
    r"#\s*oblivious:\s*allow\[(?P<rule>[A-Za-z]{2,8}\d{3})\]\s*(?P<reason>.*)$"
)
#: Anything that *looks* like a suppression attempt (so typos surface as
#: SUP001 instead of silently not suppressing).
_SUPPRESS_ATTEMPT_RE = re.compile(r"#\s*oblivious\s*:")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Qualified name of the enclosing function/class scope, "" at module
    #: level.
    qualname: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across pure line-number drift."""
        return (self.rule, self.path, self.message)

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """One parsed inline ``allow[RULE123] reason`` suppression comment."""

    rule: str
    reason: str
    comment_line: int


@dataclass
class SourceModule:
    """A parsed source file plus the lint-relevant side tables."""

    path: str
    text: str
    tree: ast.Module
    lines: list[str]
    #: line -> suppressions that apply to findings anchored on that line.
    suppressions: dict[int, list[Suppression]] = field(default_factory=dict)
    #: Malformed suppression attempts: (line, message).
    bad_suppressions: list[tuple[int, str]] = field(default_factory=list)

    def suppression_for(self, line: int, rule: str) -> Optional[Suppression]:
        for supp in self.suppressions.get(line, ()):
            if supp.rule == rule:
                return supp
        return None


class AnalysisError(Exception):
    """Raised for unreadable/unparseable inputs and malformed baselines."""


def _parse_suppressions(module: SourceModule) -> None:
    """Populate the line -> suppression map.

    A trailing suppression applies to its own line.  A run of comment-only
    suppression lines applies to the first following non-comment line, so
    allows for several rules can stack above one statement:

        # oblivious: allow[RNG001] reason
        import random
    """
    pending: list[Suppression] = []
    for lineno, raw in enumerate(module.lines, start=1):
        stripped = raw.strip()
        match = _SUPPRESS_RE.search(raw)
        if match is not None:
            reason = match.group("reason").strip()
            if not reason:
                module.bad_suppressions.append(
                    (lineno, f"suppression for {match.group('rule')} has no reason")
                )
                continue
            supp = Suppression(match.group("rule"), reason, lineno)
            if stripped.startswith("#"):
                pending.append(supp)
            else:
                entry = module.suppressions.setdefault(lineno, [])
                entry.extend(pending)
                pending = []
                entry.append(supp)
            continue
        if _SUPPRESS_ATTEMPT_RE.search(raw) is not None:
            module.bad_suppressions.append(
                (lineno, "malformed suppression; expected "
                         "'# oblivious: allow[RULE123] reason'")
            )
            continue
        if stripped.startswith("#") or not stripped:
            # Plain comments/blank lines do not break a pending stack.
            continue
        if pending:
            module.suppressions.setdefault(lineno, []).extend(pending)
            pending = []


def parse_module(path: str, text: Optional[str] = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule` (raises AnalysisError)."""
    if text is None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    module = SourceModule(
        path=path, text=text, tree=tree, lines=text.splitlines()
    )
    _parse_suppressions(module)
    return module


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``title`` and implement :meth:`check`,
    yielding :class:`Finding` objects with ``rule == self.rule_id``.
    """

    rule_id: str = ""
    title: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError


#: rule_id -> Rule instance, populated by :func:`register_rule`.
RULE_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> dict[str, Rule]:
    """The registry with every built-in rule module imported."""
    from repro.analysis import rules as _rules  # noqa: F401  (registration side effect)

    return RULE_REGISTRY


# ----------------------------------------------------------------------
# Qualified names
# ----------------------------------------------------------------------
def build_qualnames(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every function/class node to its dotted qualname.

    Nested functions follow CPython's ``<locals>`` convention, e.g.
    ``Outer.method.<locals>.inner``.
    """
    names: dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                names[child] = qual
                visit(child, f"{qual}.<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                names[child] = qual
                visit(child, f"{qual}.", in_function)
            else:
                visit(child, prefix, in_function)

    visit(tree, "", False)
    return names


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    files_scanned: int = 0

    def extend(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_scanned += other.files_scanned


def analyze_module(module: SourceModule) -> AnalysisResult:
    """Run every rule over one parsed module."""
    result = AnalysisResult(files_scanned=1)
    rules = all_rules()
    seen: set[tuple[str, str, int, int, str]] = set()
    for rule_id in sorted(rules):
        for finding in rules[rule_id].check(module):
            dedupe = (
                finding.rule, finding.path, finding.line, finding.col,
                finding.message,
            )
            if dedupe in seen:
                continue
            seen.add(dedupe)
            supp = module.suppression_for(finding.line, finding.rule)
            if supp is not None:
                result.suppressed.append((finding, supp))
                continue
            result.findings.append(finding)
    for line, message in module.bad_suppressions:
        result.findings.append(
            Finding(
                rule="SUP001",
                path=module.path,
                line=line,
                col=0,
                message=message,
            )
        )
    result.findings.sort(key=Finding.sort_key)
    return result


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    out: list[str] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.extend(
                str(f) for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.append(str(p))
        elif not p.exists():
            raise AnalysisError(f"no such file or directory: {entry}")
    seen: set[str] = set()
    for path in out:
        if path not in seen:
            seen.add(path)
            yield path


def analyze_paths(
    paths: Iterable[str],
    on_file: Optional[Callable[[str], None]] = None,
) -> AnalysisResult:
    """Analyze every ``.py`` file under ``paths``."""
    total = AnalysisResult()
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        module = parse_module(path)
        total.extend(analyze_module(module))
    total.findings.sort(key=Finding.sort_key)
    return total
