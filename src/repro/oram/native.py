"""Build and load the C request kernel and recursion walk (``_write_back.c``).

The array engine's bin loop, recursion walk, path read and write-backs are
one small C extension over the engine's own objects (see
:mod:`repro.oram.write_back`).  It is built the first time
it is imported, with the compiler, flags and include directory of the
running interpreter (:mod:`sysconfig`), into the ``__pycache__`` directory
beside its source, under a name keyed by the source's hash and the
interpreter's ``EXT_SUFFIX``; later imports load that file.  A build
compiles to a temporary file and renames it into place with
:func:`os.replace`, so processes that build at once (benchmark workers,
shard workers) each load a whole file.  Where ``__pycache__`` cannot be
written, the build goes to a temporary directory of the process.

There is no other implementation to fall back to: with no compiler or no
``Python.h``, :func:`load` raises :class:`ImportError` naming what is
missing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

SOURCE = Path(__file__).with_name("_write_back.c")
#: The extension's import name; ``PyInit__write_back`` in the source.
MODULE = "repro.oram._write_back"


def load(cache_dir=None, compiler=None, include_dir=None):
    """The built extension module, building it first if no build is cached.

    ``cache_dir`` defaults to the ``__pycache__`` beside the source,
    ``compiler`` to the interpreter's (the first word of ``sysconfig``'s
    ``LDSHARED``, which compiles and links in one step) and ``include_dir``
    to the interpreter's header directory.  The file name carries the hash
    Python keys hash-based ``.pyc`` files by (:func:`importlib.util.source_hash`)
    and the interpreter's first extension suffix (``EXT_SUFFIX``).  Only a
    build imports the build tools (``sysconfig``, ``subprocess`` and the
    rest): loading a cached build costs no module a run would not import
    anyway.
    """
    key = importlib.util.source_hash(SOURCE.read_bytes()).hex()
    name = f"_write_back.{key}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    directory = Path(cache_dir) if cache_dir is not None else SOURCE.parent / "__pycache__"
    target = directory / name
    if not target.exists():
        import tempfile

        command = _build_command(compiler, include_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _build(command, directory, target)
        except OSError:
            target = Path(tempfile.mkdtemp(prefix="repro-native-")) / name
            _build(command, target.parent, target)
    loader = importlib.machinery.ExtensionFileLoader(MODULE, str(target))
    spec = importlib.util.spec_from_file_location(MODULE, target, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _build_command(compiler, include_dir) -> list[str]:
    """The compile-and-link command, its output path left to :func:`_build`."""
    import shlex
    import shutil
    import sysconfig

    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if compiler is not None:
        link[0] = compiler
    if shutil.which(link[0]) is None:
        raise ImportError(
            f"the kernels are C and no C compiler was found: {link[0]!r} "
            "is not on PATH (install the compiler this Python was built with)"
        )
    include = Path(include_dir or sysconfig.get_paths()["include"])
    if not (include / "Python.h").exists():
        raise ImportError(
            f"the kernels are C and Python.h is not in {include} "
            "(install this Python's development headers)"
        )
    flags = shlex.split(sysconfig.get_config_var("CFLAGS") or "")
    flags += shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    return [*link, *flags, f"-I{include}", str(SOURCE)]


def _build(command: list[str], directory: Path, target: Path) -> None:
    """Compile into a temporary file in ``directory``, then rename it to ``target``."""
    import os
    import shlex
    import subprocess
    import tempfile

    handle, partial = tempfile.mkstemp(dir=directory, suffix=".partial")
    os.close(handle)
    try:
        done = subprocess.run(
            [*command, "-o", partial], capture_output=True, text=True, check=False
        )
        if done.returncode:
            raise ImportError(
                f"building the kernels failed ({shlex.join(command)}):\n"
                f"{done.stderr.strip()}"
            )
        os.replace(partial, target)
        # Builds of an earlier source: a process that loaded one keeps its
        # mapping.
        for stale in directory.glob(f"_write_back.*{importlib.machinery.EXTENSION_SUFFIXES[0]}"):
            if stale != target:
                stale.unlink(missing_ok=True)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
