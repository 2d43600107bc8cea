"""The request kernel of the array engine, the stash it works on, and the
trainer's gradient sum.

The classic PathORAM eviction rule: after a path has been read, every stash
block whose assigned path intersects the accessed path may be written back,
and blocks are pushed as deep as possible.  Unlike the textbook description,
the rule here is *occupancy aware*: it only uses the free slots a bucket
actually has.  That matters for LAORAM, which can read several paths before
writing them back, so later write-backs see buckets that earlier write-backs
already refilled.

Two C entry points of the engine (``_write_back.c``, built and loaded by
:mod:`repro.oram.native`), each over :class:`Stash` tables and trees'
operands (capacities and the first slot of each level, the ``slot_view``
/ ``occupancy_view`` buffers and the depth, which places each level's
buckets):

* ``serve(stash, caps, level_base, slots, occ, depth, update, ids,
  size, ...)`` — one request of the engine
  (``PathORAM._run_bins`` is its binder): the bins of a run of ids, the
  commit bin of a held step, or one dummy read, each decided as the
  reference client decides it.  ``update`` is the map's walk operands:
  a recursive map's levels, walked for every remap, then the entry
  swapped in place (all of a dense map's update);
* ``walk(operands, block_id, leaf) -> old_leaf`` — one access to a
  position map (``PositionMap.update`` is its caller): top down, the block
  of each level holding the label takes a fresh label in its parent, is
  read with its path unless it is stashed, and the path is written back;
  then the entry is swapped.

Inside them, one path read and two write-backs serve every tree, the main
tree and every recursion level: the read goes root to leaf, each bucket's
occupied slots entering the stash in slot order, each id under the owner's
labels (the position map's entries, or a level's labels); the greedy
write-back of one path serves a bin's first path and every dummy read,
which their own read just emptied, and a bin's later paths, which find the
buckets they share with an earlier one refilled (``docs/performance.md``,
"One write-back or two"); the commit bin fills a held step's read paths as
one subtree, level by level.  The read is the per-object reference tree's
(``tests/oracle/tree.py``), both write-backs are decision-identical to the
reference planner (``tests/oracle/write_back.py``) and the walk to the
reference map (``tests/oracle/position_map.py``).

:class:`Stash` is every tree's stash, the main tree's
(:attr:`ArrayStash.entries <repro.oram.stash.ArrayStash.entries>`) and each
recursion level's: an insertion-ordered ``id -> leaf`` table the kernels
own, with ids and leaves as C ints, so the read appends to it and the
write-backs scan and delete from it without running Python code.  It keeps
a dict's order rules (an assignment to a present id keeps its position,
a deleted and re-inserted id moves to the end), the ones the write-back's
tie-breaks follow.

``group_sum(gradients, order, starts, out)`` is the third entry point, and
the one the engine does not call: a training step's gradient sum
(``ObliviousEmbeddingTrainer.apply_gradients`` is its caller).  The step
groups its ids once, with a stable argsort (``order``) and the offset where
each run of equal ids starts (``starts``); the kernel writes each run's sum
into ``out``, reading the gradient rows through ``order`` rather than from a
gathered copy.  Each sum is ``numpy.add.reduceat(gradients[order], starts,
axis=0)``'s bit for bit: the run's first row plus numpy's pairwise sum of
the rest, so the trained table is the one numpy's grouping trains.  It
shares the module's one build and loader.
"""

from repro.oram.native import load

_kernels = load()
serve = _kernels.serve
walk = _kernels.walk
group_sum = _kernels.group_sum
Stash = _kernels.Stash
