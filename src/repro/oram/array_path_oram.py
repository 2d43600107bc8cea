"""Array-backed PathORAM engine: the vectorized twin of :class:`PathORAM`.

This engine executes the exact same protocol as the per-object
:class:`~repro.oram.path_oram.PathORAM` — the control flow is literally the
same code, :class:`~repro.oram.engine.TreeORAMEngine` — but binds it to the
:class:`~repro.oram.engine.ArrayStorageEngine` backend, which stores server
state as numpy arrays and the small client stash as one dict:

* the tree is an :class:`~repro.oram.tree.ArrayTreeStorage` (one ``int64``
  slot matrix + occupancy vector per level);
* the stash is an :class:`~repro.oram.stash.ArrayStash`: one insertion-ordered
  ``{id: leaf}`` dict, the format the trace kernel and the write-back
  kernels of :mod:`repro.oram.write_back` run on;
* the position map is :class:`~repro.oram.position_map.PositionMap`, the
  source of truth for every block's leaf; the stash holds the
  leaves of resident blocks so the write-back needs no gather;
* payloads live in a client-side id->payload store (payload location never
  affects traffic, so keeping it out of the simulated server removes all
  per-block object churn from the hot path).

Because both engines follow the same decision procedure, a fixed seed
produces bit-identical :class:`~repro.memory.accounting.TrafficSnapshot`
counters on either backend — the equivalence
``tests/test_engine_equivalence.py`` asserts.
"""

from __future__ import annotations

from repro.oram.engine import ArrayStorageEngine


class ArrayPathORAM(ArrayStorageEngine):
    """Vectorized PathORAM client + simulated server storage.

    Control flow from :class:`~repro.oram.engine.TreeORAMEngine`, storage
    from :class:`~repro.oram.engine.ArrayStorageEngine`; like its per-object
    twin, PathORAM itself adds nothing on top of the shared engine.
    """
