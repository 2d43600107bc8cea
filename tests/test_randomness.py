"""Every generator stream comes from one seed, through ``repro.utils.rng``.

The bit-identity oracle (the twin suites, the kernel differentials, the
benchmark's repeatability checks) needs the same stream on both sides of
every comparison, and the security argument needs uniform, independent
remaps.  Both rest on a fixed seed determining every generator, so only
``src/repro/utils/rng.py`` may construct one.  No dynamic test kills a
stray generator: one nobody draws from changes no figure.  So this test
parses every ``*.py`` under ``src/repro``, ``benchmarks`` and ``examples``
and fails on a stdlib ``random`` import, a ``numpy.random`` import, or a
call through ``numpy.random`` under any name an import binds to it.  A
reference that is not a call (the ``np.random.Generator`` annotation) is
fine.  An exception, if one is ever needed, is a named path here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: The one module that constructs generators.
RNG_MODULE = REPO / "src" / "repro" / "utils" / "rng.py"


def program_files() -> list[Path]:
    """Every program file except the RNG module."""
    tops = ("src/repro", "benchmarks", "examples")
    return sorted(p for top in tops for p in (REPO / top).rglob("*.py") if p != RNG_MODULE)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def stray_randomness(source: str) -> list[tuple[int, str]]:
    """``(line, finding)`` for each stray import of, or call into, a random module."""
    tree = ast.parse(source)
    # The names ``numpy`` and ``numpy.random`` are bound to, in any scope;
    # ``np`` and ``numpy`` always count.
    numpy_names, numpy_random_names = {"np", "numpy"}, set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _within(alias.name, "random") or _within(alias.name, "numpy.random"):
                    found.append((node.lineno, f"import {alias.name}"))
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    numpy_random_names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module or "", [alias.name for alias in node.names]
            if (
                _within(module, "random")
                or _within(module, "numpy.random")
                or (module == "numpy" and "random" in names)
            ):
                found.append((node.lineno, f"from {module} import {', '.join(names)}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and (
            (func.id in numpy_names and len(parts) > 1 and parts[0] == "random")
            or (func.id in numpy_random_names and parts)
        ):
            found.append((node.lineno, f"call {'.'.join([func.id, *parts])}()"))
    return sorted(found)


def test_only_the_rng_module_constructs_generators():
    files = program_files()
    # Each tree is scanned, and the one module that constructs generators is not.
    tops = {REPO / "src/repro/oram/path_oram.py", REPO / "benchmarks/suite/__main__.py",
            REPO / "examples/quickstart.py"}
    assert tops <= set(files) and RNG_MODULE.is_file() and RNG_MODULE not in files
    found = [
        f"{path.relative_to(REPO)}:{line}: {finding}"
        for path in files
        for line, finding in stray_randomness(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "randomness outside repro.utils.rng (use make_rng / spawn_rngs)"


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import random\n", [1]),
        ("from random import choice\n", [1]),
        ("from numpy.random import default_rng\n", [1]),
        ("from numpy import random\n", [1]),
        ("import numpy as np\n\nrng = np.random.default_rng()\n", [3]),
        # numpy's legacy global state is a stream no seed here reaches.
        ("import numpy as np\n\nx = np.random.randint(0, 8)\n", [3]),
        ("import numpy.random\n\nnumpy.random.seed(0)\n", [1, 3]),
        # An alias of numpy.random is an import, and each call through it.
        ("import numpy.random as npr\n\nrng = npr.default_rng(1)\n", [1, 3]),
        ("import numpy as xp\n\nrng = xp.random.default_rng(2)\n", [3]),
    ],
    ids=["import random", "from random", "from numpy.random", "from numpy import random",
         "np.random.f()", "np.random legacy", "import numpy.random", "npr.f()",
         "xp.random.f()"],
)
def test_each_planted_form_is_found(source, lines):
    assert [line for line, _ in stray_randomness(source)] == lines


def test_annotations_and_generator_methods_are_clean():
    source = (
        "import numpy as np\n"
        "\n"
        "def draw(rng: np.random.Generator) -> np.ndarray:\n"
        "    assert isinstance(rng, np.random.Generator)\n"
        "    return rng.random(3) + rng.integers(0, 8)\n"
    )
    assert stray_randomness(source) == []


def test_draws_through_the_rng_module_are_clean():
    source = (
        "from repro.utils.rng import make_rng, spawn_rngs\n"
        "\n"
        "def draw(seed):\n"
        "    return make_rng(seed).integers(0, 8), spawn_rngs(seed, 4)\n"
    )
    assert stray_randomness(source) == []


def test_a_generator_planted_in_the_engine_is_found():
    # The real engine's source with an unseeded generator appended.
    engine = (REPO / "src" / "repro" / "oram" / "path_oram.py").read_text(encoding="utf-8")
    assert stray_randomness(engine) == []
    planted = engine + "\n\nscratch_rng = np.random.default_rng()\n"
    assert stray_randomness(planted) == [
        (planted.count("\n"), "call np.random.default_rng()")
    ]
