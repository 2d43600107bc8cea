"""Manifests: what is secret, what is hot, and what is legitimately revealed.

The taint/allocation rules are only as good as their ground truth, and that
ground truth is protocol knowledge no AST walk can infer.  This module
states it explicitly, per engine module:

* :class:`ModuleSources` — the taint *sources* of one module: parameter
  names that carry secrets (request block ids), attribute suffixes whose
  values are secret (position-map leaf arrays, the stash's dict), calls
  whose results are secret (position-map lookups, stash lookups), and the
  *declassifier* calls after which a leaf argument is public (the protocol
  has just read that path, so the adversary saw it).
* hot-function manifests — which functions the OBL rules analyze
  (``obl_hot_functions``), which the zero-allocation rule covers and at
  what granularity (``alloc_hot_functions``), and which fused drivers owe
  a deferred-counter flush (``fused_drivers``).
* :class:`Declassification` — the allowlist for places the protocol
  legitimately reveals secret-derived information (client-side write-back
  planning).  Every entry carries a mandatory reason, mirrored in
  ``docs/static_analysis.md``.

Modules are matched by posix path *suffix* (``oram/path_oram.py``), so scratch
copies under a temp dir are analyzed with the real manifest — that is what
lets the regression tests plant a bug in a copy of the engine and watch the
rule fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional


@dataclass(frozen=True)
class Declassifier:
    """A call after which given positional args become public.

    ``suffix`` matches the end of the call's dotted name; ``positions`` are
    the 0-based positional arguments whose (bare-name) taint is cleared
    after the call — e.g. the leaf passed to a path read is revealed by the
    read itself.
    """

    suffix: str
    positions: tuple[int, ...]


@dataclass
class ModuleSources:
    """Taint sources (and declassifiers) for one module."""

    #: Function parameter names that carry secrets.
    params: frozenset[str] = frozenset()
    #: Dotted attribute suffixes whose values are secret.
    attrs: frozenset[str] = frozenset()
    #: Dotted call suffixes whose return values are secret.
    calls: frozenset[str] = frozenset()
    #: Calls that reveal (declassify) specific arguments.
    declassifiers: tuple[Declassifier, ...] = ()


@dataclass(frozen=True)
class AllocScope:
    """Zero-allocation coverage for one function.

    ``granularity`` is ``"body"`` for per-access leaf helpers (the whole
    body is steady state) or ``"loops"`` for trace drivers (setup before
    the access loop may allocate; loop bodies may not).
    """

    qualname: str
    granularity: str = "body"


@dataclass(frozen=True)
class Declassification:
    """Allowlist entry: findings of ``rules`` in one function are sanctioned."""

    module_suffix: str
    qualname: str
    rules: tuple[str, ...]
    reason: str


@dataclass
class AnalysisConfig:
    """Everything the rules need to know about the codebase under analysis."""

    #: module suffix -> taint sources for the OBL rules.
    sources: dict[str, ModuleSources] = field(default_factory=dict)
    #: module suffix -> qualnames (fnmatch patterns) the OBL rules analyze.
    obl_hot_functions: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Bare names of *observable* (simulated server-side) containers;
    #: a tainted subscript index into one of these is an OBL002 sink.
    observable_containers: frozenset[str] = frozenset()
    #: module suffix -> zero-allocation scopes for ALLOC001.
    alloc_hot_functions: dict[str, tuple[AllocScope, ...]] = field(
        default_factory=dict
    )
    #: module suffix -> fused-driver qualnames for CNT001.
    fused_drivers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Path suffixes where direct RNG construction is allowed (RNG001).
    rng_allowed_modules: tuple[str, ...] = ()
    #: Declassification allowlist (see class docstring).
    declassifications: tuple[Declassification, ...] = ()
    #: Rule ids to run (None = all registered).
    rules: Optional[tuple[str, ...]] = None

    # ------------------------------------------------------------------
    def _norm(self, path: str) -> str:
        return path.replace("\\", "/")

    def module_key(self, path: str, table: dict) -> Optional[str]:
        """The table key whose suffix matches ``path`` (longest wins)."""
        norm = self._norm(path)
        best: Optional[str] = None
        for suffix in table:
            if norm.endswith(suffix) and (best is None or len(suffix) > len(best)):
                best = suffix
        return best

    def sources_for(self, path: str) -> Optional[ModuleSources]:
        key = self.module_key(path, self.sources)
        return self.sources[key] if key is not None else None

    def obl_hot_for(self, path: str) -> tuple[str, ...]:
        key = self.module_key(path, self.obl_hot_functions)
        return self.obl_hot_functions[key] if key is not None else ()

    def alloc_scopes_for(self, path: str) -> tuple[AllocScope, ...]:
        key = self.module_key(path, self.alloc_hot_functions)
        return self.alloc_hot_functions[key] if key is not None else ()

    def fused_drivers_for(self, path: str) -> tuple[str, ...]:
        key = self.module_key(path, self.fused_drivers)
        return self.fused_drivers[key] if key is not None else ()

    def rng_allowed(self, path: str) -> bool:
        norm = self._norm(path)
        return any(norm.endswith(suffix) for suffix in self.rng_allowed_modules)

    def declassification_reason(
        self, path: str, qualname: str, rule: str
    ) -> Optional[str]:
        """Allowlist reason covering (module, function, rule), else None."""
        norm = self._norm(path)
        for entry in self.declassifications:
            if (
                norm.endswith(entry.module_suffix)
                and rule in entry.rules
                and fnmatchcase(qualname, entry.qualname)
            ):
                return entry.reason
        return None


# ----------------------------------------------------------------------
# The repository manifest
# ----------------------------------------------------------------------
#: Path reads reveal the leaf they fetch: after any of these calls, the
#: leaf argument is public by protocol (the adversary just watched the
#: path transfer).  Positions index the *positional* argument carrying the
#: leaf at each call shape used in the engine core.
#:
#: Trusted-setup moves are deliberately *not* listed, and appear in no hot
#: list: ``bulk_place`` / ``bulk_place_ordered`` / ``remove_many`` on the
#: tree, called from ``PathORAM.__init__`` and ``apply_initial_placement``,
#: run only while ``counter.logical_accesses == 0``, where nothing is observed — so they
#: reveal nothing, and a leaf handed to one of them from a hot function
#: stays tainted.
_PATH_REVEAL = (
    # fetch(stash, caps, level_base, node_base, slots, occ, depth, tags,
    # leaf), the C path read: the leaf is argument 8.
    Declassifier("fetch", (8,)),
    Declassifier("observe_path", (0,)),
)

# The engine's Python entry points take ids; the bin loop that decides on
# them is C (``serve``, outside the scan; see ``native.py::load`` below).
_ENGINE_SOURCES = ModuleSources(
    params=frozenset({"block_id", "block_ids"}),
    attrs=frozenset({"entries", "stash"}),
    # leaf_access() hands out the tag view and the update accessor: both
    # are secret, and so is every old leaf ``update`` returns.
    calls=frozenset({"position_map.update", "position_map.leaf_access"}),
    declassifiers=_PATH_REVEAL,
)

_POSITION_MAP_SOURCES = ModuleSources(
    params=frozenset({"block_id", "block_ids"}),
    attrs=frozenset(
        {"stash", "labels", "_top", "_entries", "_top_view", "_entries_view"}
    ),
    calls=frozenset({"_walk", "position_map.update"}),
    declassifiers=_PATH_REVEAL,
)


def default_config() -> AnalysisConfig:
    """The manifest for this repository (see docs/static_analysis.md)."""
    return AnalysisConfig(
        sources={
            "repro/oram/path_oram.py": _ENGINE_SOURCES,
            "repro/oram/position_map.py": _POSITION_MAP_SOURCES,
        },
        obl_hot_functions={
            "repro/oram/path_oram.py": (
                "PathORAM.access",
                "PathORAM.dummy_access",
                "PathORAM.commit",
            ),
            "repro/oram/position_map.py": (
                "PositionMap._walk",
                "PositionMap.update",
            ),
        },
        # The tree's arrays under every name they are bound by: the numpy
        # arrays and the memoryviews the scalar kernels index them through.
        observable_containers=frozenset(
            {
                "slots", "slot_array", "slot_view", "_slots", "_slot_view",
                "occ", "bucket_occupancies", "occupancy_view", "_occ",
                "_occ_view",
            }
        ),
        alloc_hot_functions={
            # The payload get/set a PathORAM trace calls once per access.
            "repro/oram/row_store.py": (
                AllocScope("OverlayRowStore.get", "body"),
                AllocScope("OverlayRowStore.__setitem__", "body"),
            ),
        },
        # The binder folds the counts the C kernel left in its state buffer.
        fused_drivers={
            "repro/oram/path_oram.py": ("PathORAM._run_bins",),
        },
        rng_allowed_modules=("repro/utils/rng.py",),
        declassifications=(
            # The bin loop, the path read and the write-backs are C
            # (oram/_write_back.c), outside the scan; their one Python entry
            # point is the loader that builds them, and this entry is where
            # the reveal they make is stated (docs/static_analysis.md,
            # "Leakage ledger").
            Declassification(
                "repro/oram/native.py",
                "load",
                ("OBL001", "OBL002"),
                "the kernels it loads read a whole path whatever it holds, and "
                "the write-backs plan client-side and every path they write is "
                "charged at full-path cost whichever blocks are selected; they "
                "touch only the slots and occupancies of the already-revealed "
                "path or held paths, and the stash dict.  The bin loop's "
                "counts depend on the ids in three places, each a uniform leaf "
                "per event but a count the observer sees: a stash hit reads no "
                "path, a bin reads one path per distinct missing path, and an "
                "eviction episode runs until the stash drains",
            ),
        ),
    )
