"""The path reads and greedy write-back kernels of the array engine.

The classic PathORAM eviction rule: after a path has been read, every stash
block whose assigned path intersects the accessed path may be written back,
and blocks are pushed as deep as possible.  Unlike the textbook description,
the rule here is *occupancy aware*: it only uses the free slots a bucket
actually has.  That matters for LAORAM, which can read several paths before
writing them back, so later write-backs see buckets that earlier write-backs
already refilled.

The trace kernel (``PathORAM._run_bins``) and the recursion walk
(``PositionMap._walk``) are the callers, over a ``{id: leaf}`` stash dict:

* :func:`scan_fetch` / :func:`fused_fetch` — the path read, by a scalar
  bucket scan or a numpy gather: a tree picks one at construction and
  hands it out bound (:meth:`~repro.oram.tree.ArrayTreeStorage.path_reader`);
* ``write_back(stash_map, caps, level_base, node_base, slots, occ, depth,
  leaf)`` — the greedy write-back of one path: a bin's first path and
  every dummy read, which their own fetch just emptied, and a bin's later
  paths, which find the buckets they share with an earlier one refilled
  (one function: the occupancy read that kept the Python form in two,
  ``docs/performance.md``, "One write-back or two", costs nothing in C);
* ``held_write_back(..., depth, leaves)`` — a held training step's read
  paths at its commit, filled as one subtree, level by level.

The two write-backs are C (``_write_back.c``, built and loaded by
:mod:`repro.oram.native`): they walk the stash dict in insertion order,
write the tree's ``slot_view`` / ``occupancy_view`` buffers and delete the
ids they place.  Both reads leave the same stash, slots and occupancies;
both write-backs are decision-identical to the per-object reference
planner the tests hold them to (``tests/oracle/write_back.py``).
"""

from repro.oram.native import load

_kernels = load()
write_back = _kernels.write_back
held_write_back = _kernels.held_write_back


def scan_fetch(levels, slots, occ, tags, stash_map, leaf):
    """Read one path into a dict stash by scanning its occupied buckets.

    The uniform tree's read (every recursion level's, PathORAM's): a walk
    from the root over ``levels`` (the tree's
    :attr:`~repro.oram.tree.ArrayTreeStorage.path_levels`) that reads only
    each bucket's first ``occ`` slots, through the tree's memoryviews
    ``slots`` and ``occ`` and a memoryview of the owner's tag array
    ``tags``, so every item is a Python int.  A block enters ``stash_map``
    under its tag, root to leaf and in insertion order within a bucket —
    the order :func:`fused_fetch` inserts in — and its slot is blanked
    behind it; an occupied bucket's count is zeroed.  Slots past a bucket's
    occupancy hold ``-1`` (the tree's invariant), so what is left is what
    the gather leaves.  At PathORAM's ~12 blocks a path this is fewer
    interpreter steps than the gather's fourteen numpy calls; at a fat
    tree's ~73 it is more (``docs/performance.md``, "Which tree reads a
    path how").
    """
    for shift, first_bucket, first_slot, capacity in levels:
        node = leaf >> shift
        bucket = first_bucket + node
        count = occ[bucket]
        if count:
            start = first_slot + node * capacity
            for slot in range(start, start + count):
                block = slots[slot]
                stash_map[block] = tags[block]
                slots[slot] = -1
            occ[bucket] = 0


def fused_fetch(read_ids, tags, stash_map, leaf):
    """Read one path into a dict stash by one numpy gather.

    The fat tree's read: ``read_ids`` (the tree's
    :meth:`~repro.oram.tree.ArrayTreeStorage.read_path_ids`) empties the
    path and returns its real block ids, compacted by one vectorized mask
    so only the real blocks a path carries are touched (not every slot).
    Their leaves ride the wire as block metadata: one ``take`` on the
    owner's tag array, and the dict absorbs the pairs via C-level
    ``update(zip(...))``.  Compaction preserves root-to-leaf slot order, so
    dict insertion order is exactly the order the reference engine adds a
    path's blocks in.
    """
    ids = read_ids(leaf)
    stash_map.update(zip(ids.tolist(), tags.take(ids).tolist()))
