"""The request kernel, path read and greedy write-backs of the array engine.

The classic PathORAM eviction rule: after a path has been read, every stash
block whose assigned path intersects the accessed path may be written back,
and blocks are pushed as deep as possible.  Unlike the textbook description,
the rule here is *occupancy aware*: it only uses the free slots a bucket
actually has.  That matters for LAORAM, which can read several paths before
writing them back, so later write-backs see buckets that earlier write-backs
already refilled.

Each function takes a ``{id: leaf}`` stash dict and one tree's operands (its
capacities, the first slot and first bucket of each level, its
``slot_view`` / ``occupancy_view`` buffers and its depth):

* ``serve(stash_map, caps, level_base, node_base, slots, occ, depth, tags,
  update, ids, size, ...)`` — one request of the engine
  (``PathORAM._run_bins`` is its binder): the bins of a run of ids, the
  commit bin of a held step, or one dummy read, each decided as the
  reference client decides it, on the three functions below;
* ``fetch(stash_map, caps, level_base, node_base, slots, occ, depth, tags,
  leaf)`` — the path read, on every tree: root to leaf, each bucket's
  occupied slots enter the stash in slot order, each id under its entry of
  ``tags`` (the owner's labels: the position map's tag view, or a recursion
  level's labels), and the path is left empty;
* ``write_back(stash_map, caps, level_base, node_base, slots, occ, depth,
  leaf)`` — the greedy write-back of one path: a bin's first path and
  every dummy read, which their own fetch just emptied, and a bin's later
  paths, which find the buckets they share with an earlier one refilled
  (one function: the occupancy read that kept the Python form in two,
  ``docs/performance.md``, "One write-back or two", costs nothing in C);
* ``held_write_back(..., depth, leaves)`` — a held training step's read
  paths at its commit, filled as one subtree, level by level.

The recursion walk (``PositionMap._walk``) calls ``fetch`` and
``write_back`` on its level trees.  All four are C (``_write_back.c``,
built and loaded by :mod:`repro.oram.native`): they walk the stash dict in
insertion order, write the tree's buffers, and insert the ids they read or
delete the ids they place.  The fetch reads as the per-object reference tree does
(``tests/oracle/tree.py``); both write-backs are decision-identical to the
per-object reference planner (``tests/oracle/write_back.py``).
"""

from repro.oram.native import load

_kernels = load()
serve = _kernels.serve
fetch = _kernels.fetch
write_back = _kernels.write_back
held_write_back = _kernels.held_write_back
