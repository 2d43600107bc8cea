"""The oracle shares no scheduling code with the engines it checks.

A twin test compares a shipped engine with its reference in
``tests/oracle/``.  If the reference ran the library's own bin cutter, plan,
leaf stream or position map, a bug there would be made twice and the twins
would still agree.  So every ``repro`` import under ``tests/oracle/`` is
held, by parsing the sources, to an allowlist of what the oracle may take
from the library: the configuration types, the RNG constructors, the bit
helpers, the exceptions, the traffic counter and its price, the engine
interface, the read-only row view and, in the package's ``__init__`` only,
the library builders it swaps the reference classes into.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parent / "oracle"

#: Modules any oracle file may import from, with what the oracle takes there.
ALLOWED_MODULES = {
    "repro.oram.config": "ORAMConfig, the main tree's configuration",
    "repro.core.config": "LAORAMConfig, the lookahead client's configuration",
    "repro.utils.rng": "make_rng / spawn_rngs, the seeded generators",
    "repro.utils.bits": "tree-geometry arithmetic",
    "repro.exceptions": "the error types both sides raise",
    "repro.memory.accounting": "TrafficCounter, the traffic ledger",
    "repro.memory.timing": "PAPER_TIMING, the ledger's price",
    "repro.oram.base": "ObliviousMemory / AccessOp, the engine interface",
}

#: Modules the oracle may take named functions from, and only those.
ALLOWED_NAMES = {"repro.oram.row_store": {"read_only"}}

#: The builder glue of ``oracle/__init__.py``: the library's family table and
#: sharded runner, which the reference classes are swapped into.
GLUE = {"__init__.py": {"repro.experiments.configs", "repro.experiments.sharded"}}

#: Where the library's scheduling lives: the engine and its kernel, the LAORAM
#: client and its bin cutter, the plan, the preprocessor, the position map
#: with its recursion walk, the write-back kernels and their loader, the tree
#: and the stash.
FORBIDDEN = (
    "repro.oram.path_oram",
    "repro.oram.engine",
    "repro.core.laoram",
    "repro.core.superblock",
    "repro.core.preprocessor",
    "repro.oram.position_map",
    "repro.oram.write_back",
    "repro.oram.native",
    "repro.oram.tree",
    "repro.oram.stash",
)


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` of every ``repro`` import in ``path``.

    ``import repro.x`` gives ``("repro.x", None)``; ``from repro.x import y``
    gives ``("repro.x", "y")``, whether ``y`` is a name or a submodule.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def oracle_files() -> list[Path]:
    return sorted(ORACLE.glob("*.py"))


def _within(module: str, roots) -> bool:
    return any(module == root or module.startswith(root + ".") for root in roots)


def test_the_allowlist_and_the_forbidden_modules_do_not_meet():
    allowed = set(ALLOWED_MODULES) | set(ALLOWED_NAMES) | set().union(*GLUE.values())
    assert not [module for module in allowed if _within(module, FORBIDDEN)]


def test_the_oracle_imports_from_the_library():
    # Guards the guard: an empty scan would pass vacuously.
    assert oracle_files()
    assert sum(len(repro_imports(path)) for path in oracle_files()) >= 10


@pytest.mark.parametrize("path", oracle_files(), ids=lambda path: path.name)
def test_every_repro_import_is_on_the_allowlist(path):
    glue = GLUE.get(path.name, set())
    refused = []
    for module, name in repro_imports(path):
        qualified = module if name is None else f"{module}.{name}"
        if _within(module, FORBIDDEN) or _within(qualified, FORBIDDEN):
            refused.append(f"{qualified} (scheduling code)")
        elif module in ALLOWED_MODULES or qualified in glue:
            continue
        elif name is not None and name in ALLOWED_NAMES.get(module, ()):
            continue
        else:
            refused.append(f"{qualified} (not on the allowlist)")
    assert not refused, f"{path.name} imports " + ", ".join(refused)


def test_no_reference_class_inherits_library_code_but_the_interface():
    from repro.oram.base import ObliviousMemory

    from oracle import REFERENCE_CLASSES

    for cls in REFERENCE_CLASSES.values():
        inherited = [
            base for base in cls.__mro__
            if base.__module__.startswith("repro") and base is not ObliviousMemory
        ]
        assert inherited == [], cls.__name__
