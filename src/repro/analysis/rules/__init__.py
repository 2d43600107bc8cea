"""Built-in rules.  Importing this package registers every rule.

Rule inventory (ids are stable; see ``docs/static_analysis.md``):

* RNG001 — direct RNG construction outside ``repro.utils.rng``
  (:mod:`.rng`).
* SUP001 — malformed or reason-less inline suppressions (emitted by the
  driver in :mod:`repro.analysis.core`, not a rule class).
"""

from repro.analysis.rules import rng  # noqa: F401  (registration side effect)

__all__ = ["rng"]
