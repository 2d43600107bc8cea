"""Every public name under ``src/repro`` has a caller outside its own tests.

The guard parses ``src/repro/**/*.py`` once and collects every public
module-level function, class and constant (a plain or annotated assignment
to a name), and every public method and property of a module-level class.
It then tokenizes the program's own callers once: each file under
``src/repro`` except the ``__init__`` re-exports, the benchmark suite and
the examples.  A name is used when a token outside its own
definition names it:

* a NAME token, including one inside an f-string;
* a docstring cross-reference (``:meth:`name```, ``:attr:`Class.name```):
  the documented contract of another name is defined through it.

A plain word in a comment or a string is not a use.  A name nothing uses
fails here unless ``ALLOWLIST`` names its reader.  Out of scope by rule:
dunder methods, the ``visit_*`` methods of ``ast.NodeVisitor`` subclasses
(``generic_visit`` dispatches to them by string) and ``@register_rule``
classes (the registry instantiates them).

The match is by bare name, so a common name (``write``, ``check``) counts
as used as soon as anything uses a name spelt the same: the guard finds the
names nothing spells, not every name nothing reaches.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Public names no program file uses, each with the reader that keeps it:
#: a doc that runs it, or tests that inspect state or check a reproduced
#: claim through it.  An entry that gains a use, or whose name is gone,
#: fails the guard.
ALLOWLIST: dict[str, str] = {
    "repro.core.laoram.LAORAMClient.bins_by_position": (
        "README.md's embedding row names it as the drift counter; "
        "tests/test_laoram.py and tests/test_trace_contract.py read it"
    ),
    "repro.embedding.secure_loader.SecureEmbeddingStore.materialize": (
        "tests/test_secure_loader.py and tests/test_training_fast_path.py "
        "read the protected table back through it"
    ),
    "repro.experiments.figure2.Figure2Result.looks_random_with_hot_band": (
        "tests/test_experiment_reproduction.py checks Figure 2's claim through it"
    ),
    "repro.experiments.recursion.render_recursion_table": (
        "docs/recursive_position_map.md runs it for the recursion table"
    ),
    "repro.experiments.recursion.run_recursion_amortization": (
        "docs/recursive_position_map.md runs it for the recursion table"
    ),
    "repro.experiments.table1.Table1Row.fat_overhead_vs_normal": (
        "tests/test_experiment_reproduction.py checks Table I's fat-tree overhead"
    ),
    "repro.experiments.table1.Table1Row.pathoram_overhead": (
        "tests/test_experiment_reproduction.py checks Table I's PathORAM overhead"
    ),
    "repro.memory.accounting.TrafficCounter.observe_stash": (
        "the reference engines of tests/oracle/engine.py observe their stash "
        "through it; tests/test_accounting.py checks it"
    ),
    "repro.memory.accounting.TrafficCounter.record_background_eviction": (
        "the reference engine of tests/oracle/engine.py counts its episodes "
        "through it; tests/test_accounting.py checks it"
    ),
    "repro.memory.accounting.TrafficCounter.record_stash_hit": (
        "the reference engines of tests/oracle/engine.py count their stash "
        "hits through it"
    ),
    "repro.oram.base.ObliviousMemory.read": (
        "tests/test_path_oram.py and tests/test_memory_models.py read payloads "
        "back through it"
    ),
    "repro.oram.stash.ArrayStash.leaf_of": (
        "tests/test_engine_equivalence.py and tests/test_laoram.py check stash "
        "tags against the position map"
    ),
    "repro.oram.write_back.held_write_back": (
        "the commit bin runs its C body inside serve; tests/test_native_write_back.py "
        "and tests/test_batched_write_back.py hold the subtree fill to the "
        "reference planner through it"
    ),
}

#: A Sphinx cross-reference in a docstring; group 1 is the referenced name.
_CROSS_REFERENCE = re.compile(r":(?:meth|attr|func|class|data|exc|obj):`~?(?:[\w.]*\.)?(\w+)`")


def _is_visitor(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "NodeVisitor")
        or (isinstance(base, ast.Attribute) and base.attr == "NodeVisitor")
        for base in node.bases
    )


def _is_registered_rule(node: ast.ClassDef) -> bool:
    return any(
        isinstance(deco, ast.Name) and deco.id == "register_rule"
        for deco in node.decorator_list
    )


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno] + [deco.lineno for deco in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(src: Path) -> dict[str, tuple[str, Path, list[tuple[int, int]]]]:
    """``{qualified name: (name, file, line spans)}`` of the public surface.

    A property's setter, or any second definition under the same qualified
    name, adds a span: its decorator naming the getter is not a use.
    """
    found: dict[str, tuple[str, Path, list[tuple[int, int]]]] = {}

    def add(qualified: str, name: str, path: Path, node: ast.AST) -> None:
        found.setdefault(qualified, (name, path, []))[2].append(_span(node))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions) and _public(node.name):
                add(f"{module}.{node.name}", node.name, path, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and _public(target.id):
                        add(f"{module}.{target.id}", target.id, path, node)
            elif isinstance(node, ast.ClassDef) and not _is_registered_rule(node):
                if _public(node.name):
                    add(f"{module}.{node.name}", node.name, path, node)
                visitor = _is_visitor(node)
                for item in node.body:
                    if not isinstance(item, functions) or not _public(item.name):
                        continue
                    if visitor and item.name.startswith("visit_"):
                        continue
                    add(f"{module}.{node.name}.{item.name}", item.name, path, item)
    return found


def caller_files(root: Path) -> list[Path]:
    """The program's own callers: library code, the benchmark suite, the examples."""
    library = [p for p in (root / "src" / "repro").rglob("*.py") if p.name != "__init__.py"]
    others = [p for top in ("benchmarks", "examples") for p in (root / top).rglob("*.py")]
    return sorted(library + others)


def _string_uses(token: tokenize.TokenInfo) -> list[tuple[str, int]]:
    """Names a STRING token uses: cross-references, and f-string expressions.

    Python < 3.12 tokenizes an f-string as one STRING, so its expressions
    are parsed here; from 3.12 on they arrive as NAME tokens anyway.
    """
    text, first_line = token.string, token.start[0]
    found = [
        (match.group(1), first_line + text.count("\n", 0, match.start()))
        for match in _CROSS_REFERENCE.finditer(text)
    ]
    prefix = text[: len(text) - len(text.lstrip("rRbBuUfF"))]
    if "f" in prefix.lower():
        for node in ast.walk(ast.parse(text, mode="eval")):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(name, str):
                found.append((name, first_line + node.lineno - 1))
    return found


def name_uses(files: list[Path]) -> dict[str, list[tuple[Path, int]]]:
    """``{identifier: [(file, line), ...]}`` of every use in ``files``."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in files:
        readline = io.StringIO(path.read_text(encoding="utf-8")).readline
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.NAME:
                uses.setdefault(token.string, []).append((path, token.start[0]))
            elif token.type == tokenize.STRING:
                for name, line in _string_uses(token):
                    uses.setdefault(name, []).append((path, line))
    return uses


def scan(root: Path, allowlist: dict[str, str]) -> tuple[list[str], list[str]]:
    """``(unused names not allowlisted, stale allowlist entries)`` under ``root``."""
    definitions = public_definitions(root / "src" / "repro")
    uses = name_uses(caller_files(root))

    def used(name: str, path: Path, spans: list[tuple[int, int]]) -> bool:
        return any(
            where != path or not any(lo <= line <= hi for lo, hi in spans)
            for where, line in uses.get(name, ())
        )

    unused = {q for q, (name, path, spans) in definitions.items() if not used(name, path, spans)}
    stale = sorted(q for q in allowlist if q not in unused)
    return sorted(unused - allowlist.keys()), stale


def test_every_public_name_has_a_use():
    # CPU time, so a busy host does not fail the one-second budget.
    started = time.process_time()
    unused, stale = scan(REPO, ALLOWLIST)
    elapsed = time.process_time() - started
    assert not unused, (
        "public names nothing in src/repro, benchmarks/ or examples/ uses "
        "(delete them with their tests, or allowlist them with their reader): "
        + ", ".join(unused)
    )
    assert not stale, "allowlist entries that have a use or no longer exist: " + ", ".join(stale)
    assert len(ALLOWLIST) <= 15
    assert elapsed < 1.0


def test_the_family_names_are_the_engines_build_engine_returns():
    # One shipped backend: the package's family names bind to the classes
    # the experiment harness, the suite and the examples build.
    import repro
    import repro.core
    import repro.oram
    from repro.experiments.configs import ENGINE_CLASSES, build_engine, build_oram_config

    config = build_oram_config(num_blocks=64, block_size_bytes=32, seed=1)
    assert type(build_engine("PathORAM", config)) is repro.PathORAM
    assert type(build_engine("Fat/S4", config)) is repro.LAORAMClient
    assert ENGINE_CLASSES == {"pathoram": repro.PathORAM, "laoram": repro.LAORAMClient}
    assert repro.oram.PathORAM is repro.PathORAM
    assert repro.core.LAORAMClient is repro.LAORAMClient


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_every_allowlist_reason_names_a_reader_that_exists(name):
    readers = re.findall(r"(?:tests|docs)/[\w/]+\.(?:py|md)|README\.md", ALLOWLIST[name])
    assert readers, f"{name}: the reason names no test or doc"
    for reader in readers:
        assert (REPO / reader).is_file(), f"{name}: {reader} does not exist"


def _plant(root: Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for top in ("benchmarks", "examples"):
        (root / top).mkdir(exist_ok=True)


LIBRARY = '''\
import ast


def dead():
    """Not :func:`dead` itself, nor ``documented`` in words."""
    return dead()


def documented():
    return 1


def linked():
    """Equal to :func:`documented` (this cross-reference uses it)."""
    return 1


def shown():
    return 1


class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        pass


@register_rule
class Rule:
    def describe(self):
        return ""


class Tool:
    @property
    def size(self):
        return 0

    @size.setter
    def size(self, value):
        pass

    def _helper(self):
        return Walker
'''


def test_the_scan_reports_dead_names_and_stale_entries_only(tmp_path):
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": "from repro.lib import dead, documented, Tool\n",
            "src/repro/lib.py": LIBRARY,
            # An f-string is a use on every Python version; a string or a
            # comment that merely spells the name is not.
            "examples/demo.py": (
                "from repro.lib import linked, shown\n"
                "print(f'{shown()}', 'dead', linked)\n"
                "# dead\n"
            ),
        },
    )
    allowlist = {"repro.lib.Tool": "read by a doc", "repro.lib.gone": "deleted long ago"}
    unused, stale = scan(tmp_path, allowlist)
    # ``dead`` calls and cross-references itself and is named by the
    # re-export: none of those is a use.  ``Tool.size``'s setter decorator
    # names the getter, which is not a use either.
    assert unused == ["repro.lib.Tool.size", "repro.lib.dead"]
    assert stale == ["repro.lib.gone"]


def test_the_exemptions_are_no_wider_than_their_rules(tmp_path):
    # ``visit_*`` is exempt on NodeVisitor subclasses only, and only the
    # ``register_rule`` decorator exempts a class.
    _plant(
        tmp_path,
        {
            "src/repro/lib.py": (
                "class Plain:\n"
                "    def visit_Name(self, node):\n"
                "        pass\n"
                "\n\n"
                "@dataclass\n"
                "class Record:\n"
                "    pass\n"
            ),
        },
    )
    assert scan(tmp_path, {}) == (
        ["repro.lib.Plain", "repro.lib.Plain.visit_Name", "repro.lib.Record"],
        [],
    )


@pytest.mark.parametrize("caller", ["src/repro/cli.py", "benchmarks/run.py", "examples/run.py"])
def test_a_use_in_any_caller_tree_keeps_a_name(tmp_path, caller):
    _plant(
        tmp_path,
        {
            "src/repro/lib.py": "def helper():\n    return 1\n",
            caller: "from repro.lib import helper\nhelper()\n",
        },
    )
    assert scan(tmp_path, {}) == ([], [])
    assert scan(tmp_path, {"repro.lib.helper": "kept"}) == ([], ["repro.lib.helper"])


def test_a_use_only_in_tests_keeps_nothing(tmp_path):
    _plant(
        tmp_path,
        {
            "src/repro/lib.py": "def helper():\n    return 1\n",
            "tests/test_lib.py": "from repro.lib import helper\nhelper()\n",
        },
    )
    assert scan(tmp_path, {}) == (["repro.lib.helper"], [])


def test_a_module_constant_is_a_name_like_any_other(tmp_path):
    # A public constant nothing reads is reported; one a function reads,
    # or a private one, is not.  Its own assignment is no use of it.
    _plant(
        tmp_path,
        {
            "src/repro/lib.py": (
                "#: Read by ``reader`` below.\n"
                "USED: tuple[str, ...] = ('a',)\n"
                "DEAD = ('b',) + ('c',)\n"
                "_PRIVATE = 1\n"
                "\n\n"
                "def reader():\n"
                "    return USED\n"
            ),
            "examples/run.py": "from repro.lib import reader\nreader()\n",
        },
    )
    assert scan(tmp_path, {}) == (["repro.lib.DEAD"], [])
