"""Built-in rules.  Importing this package registers every rule.

Rule inventory (ids are stable; see ``docs/static_analysis.md``):

* OBL001/OBL002 — secret-dependent branches / loop bounds & observable
  indices in engine hot paths (:mod:`.obliviousness`).
* RNG001 — direct RNG construction outside ``repro.utils.rng``
  (:mod:`.rng`).
* ALLOC001 — allocation inside the fused zero-allocation hot paths
  (:mod:`.alloc`).
* CNT001 — fused drivers without a finally-guarded ``add_bulk`` flush
  (:mod:`.counters`).
* MAN001 — a manifest entry that names no function in its module
  (:mod:`.manifest`).
* SUP001 — malformed or reason-less inline suppressions (emitted by the
  driver in :mod:`repro.analysis.core`, not a rule class).
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    alloc,
    counters,
    manifest,
    obliviousness,
    rng,
)

__all__ = ["alloc", "counters", "manifest", "obliviousness", "rng"]
