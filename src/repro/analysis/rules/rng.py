"""RNG001 — all randomness must flow through ``repro.utils.rng``.

The equivalence harness (`tests/test_engine_equivalence.py`) and every
bit-identity claim in the benchmarks rest on one assumption: a fixed seed
fully determines the generator stream.  A direct
``np.random.default_rng()`` / legacy ``np.random.*`` call or a stdlib
``random`` import anywhere else creates a stream the seed plumbing cannot
see, silently voiding those guarantees — so construction is only allowed
inside :data:`ALLOWED_MODULES` (``repro/utils/rng.py``).

Type annotations (``np.random.Generator``) are fine: the rule flags calls
and imports, not references.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (
    Finding,
    Rule,
    SourceModule,
    build_qualnames,
    register_rule,
)

#: Path suffixes where direct RNG construction is allowed.  Matched by posix
#: suffix, so a copy of the tree under a temporary directory is analyzed
#: the same way as the tree itself.
ALLOWED_MODULES = ("repro/utils/rng.py",)

_NUMPY_PREFIXES = ("np.random.", "numpy.random.")


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


def _enclosing_qualname(
    node: ast.AST, parents: dict[ast.AST, ast.AST], qualnames: dict[ast.AST, str]
) -> str:
    cursor = parents.get(node)
    while cursor is not None:
        if cursor in qualnames:
            return qualnames[cursor]
        cursor = parents.get(cursor)
    return ""


def _parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


@register_rule
class DirectRngRule(Rule):
    rule_id = "RNG001"
    title = "direct RNG construction outside repro.utils.rng"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.path.replace("\\", "/").endswith(ALLOWED_MODULES):
            return
        qualnames = build_qualnames(module.tree)
        parents = _parent_map(module.tree)

        def finding(node: ast.AST, message: str) -> Finding:
            return Finding(
                rule=self.rule_id,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                qualname=_enclosing_qualname(node, parents, qualnames),
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield finding(
                            node,
                            "stdlib 'random' import; use repro.utils.rng "
                            "(make_rng / spawn_rngs) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "random" or mod.startswith("random."):
                    yield finding(
                        node,
                        "stdlib 'random' import; use repro.utils.rng "
                        "(make_rng / spawn_rngs) instead",
                    )
                elif mod in ("numpy.random",) or mod.startswith("numpy.random."):
                    yield finding(
                        node,
                        "direct numpy.random import; construct generators via "
                        "repro.utils.rng so seeds stay centralised",
                    )
                elif mod == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            yield finding(
                                node,
                                "direct numpy.random import; construct "
                                "generators via repro.utils.rng so seeds "
                                "stay centralised",
                            )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if any(dotted.startswith(p) for p in _NUMPY_PREFIXES):
                    yield finding(
                        node,
                        f"direct call to {dotted}; all randomness must flow "
                        "through repro.utils.rng (make_rng / spawn_rngs) or "
                        "the bit-identity equivalence harness silently loses "
                        "meaning",
                    )
