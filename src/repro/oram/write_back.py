"""Greedy write-back planning shared by PathORAM, RingORAM and LAORAM.

The classic PathORAM eviction rule: after a path has been read, every stash
block whose assigned path intersects the accessed path may be written back,
and blocks are pushed as deep as possible.  Unlike the textbook description,
this planner is *occupancy aware*: it only uses the free slots a bucket
actually has.  That matters for LAORAM, which can read several paths before
writing them back, so later write-backs see buckets that earlier write-backs
already refilled.

Three planners live here:

* :func:`plan_greedy_write_back` — the per-object, single-path reference
  (the array engine replicates it slot-by-slot in
  ``ArrayStorageEngine._commit_write_back``);
* :func:`plan_batched_write_back` — the cross-path batch planner for the
  array backend: it groups the whole stash against *all* of a batch's paths
  in one vectorized xor/frexp/argsort pass, then replays the sequential
  per-path greedy selection over the shared bucket state, so committing its
  plan is bit-identical to writing the paths back one at a time;
* :func:`fused_greedy_write_back` — the allocation-free specialization the
  fused trace drivers run: same greedy rule over a plain dict stash mirror,
  valid only immediately after the target path has been emptied by a read
  (:func:`fused_fetch`, the read half of the same pair).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.memory.block import Block
from repro.oram.stash import Stash
from repro.oram.tree import TreeStorage
from repro.utils.bits import common_level

if TYPE_CHECKING:
    from repro.oram.stash import ArrayStash
    from repro.oram.tree import ArrayTreeStorage


def plan_greedy_write_back(
    tree: TreeStorage, stash: Stash, leaf: int
) -> dict[int, list[Block]]:
    """Choose stash blocks to write onto the path to ``leaf``.

    Returns a mapping ``level -> blocks``; chosen blocks are removed from the
    stash.  A block may be placed at ``level`` only if its assigned path and
    the accessed path share that level (the path-prefix invariant), and only
    if the target bucket still has a free slot.
    """
    depth = tree.depth
    by_level: list[list[int]] = [[] for _ in range(depth + 1)]
    for block in stash:
        level = common_level(block.leaf, leaf, depth)
        by_level[level].append(block.block_id)

    placement: dict[int, list[Block]] = {}
    pool: list[int] = []
    for level in range(depth, -1, -1):
        pool.extend(by_level[level])
        free = tree.bucket(level, leaf).free_slots
        if free <= 0:
            continue
        chosen: list[Block] = []
        while pool and len(chosen) < free:
            block = stash.pop(pool.pop())
            if block is not None:
                chosen.append(block)
        if chosen:
            placement[level] = chosen
    return placement


def plan_batched_write_back(
    tree: "ArrayTreeStorage", stash: "ArrayStash", leaves: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Plan the write-back of several paths over the union of their buckets.

    Returns ``(rows, slot_indices, buckets, occupancies)``: the stash rows
    selected for eviction, the flat tree slot each goes to, and the new
    occupancy of every bucket the plan touched.  The caller commits with
    :meth:`ArrayTreeStorage.commit_batch_write` and removes ``rows`` from
    the stash — one scatter each, regardless of how many paths the batch
    spans.

    The plan is bit-identical to writing the paths back sequentially (the
    per-path ``_commit_write_back`` loop) because each decision is replayed
    in the same order:

    * eligibility/grouping: one vectorized xor pass computes every (path,
      row) common level at once; a stable per-path argsort keeps ascending
      row order within a level, matching the sequential planner's
      tie-breaking.  Hole rows carry the stash's sentinel leaf whose xor bit
      length is ``depth + 2``, so they sort behind every real row and are
      never pooled.
    * shared bucket state: occupancies updated by an earlier path in the
      batch are carried forward to later paths (``occ`` cache), exactly as
      a sequential loop would observe them through the tree.
    * rows taken by an earlier path are lazily skipped when a later path
      pops them (``taken``), mirroring how a sequential planner would simply
      no longer see those rows in the stash; removal never reorders the
      remaining rows, so the surviving pool order is identical.
    """
    depth = tree.depth
    tail = stash.tail
    leaves_arr = np.asarray(leaves, dtype=np.int64)
    k = int(leaves_arr.size)
    # (k, tail) matrix of xor bit lengths: frexp's exponent IS the bit
    # length for non-negative ints (and 0 for 0), exact far below 2^53.
    xor = np.bitwise_xor(stash.leaf_rows[None, :tail], leaves_arr[:, None])
    bitlen = np.empty(xor.shape, dtype=np.intc)
    np.frexp(xor, np.empty(xor.shape, dtype=np.float64), bitlen)
    order = np.argsort(bitlen, axis=1, kind="stable")
    # Per-(path, bit length) group sizes via one offset bincount; bit
    # lengths stay below ``width`` (holes peak at depth + 2).
    width = depth + 3
    counts = np.bincount(
        (bitlen + np.arange(k, dtype=np.int64)[:, None] * width).ravel(),
        minlength=k * width,
    ).reshape(k, width)[:, : depth + 1]

    # Per-(path, level) bucket ids, starting occupancies, bucket capacities
    # and flat slot bases, all gathered in a handful of small vectorized
    # passes (k x (depth+1) each, deep-to-root column order) so the greedy
    # loop below touches no numpy scalars on its hot path.
    caps_arr = np.asarray(tree.bucket_capacities, dtype=np.int64)
    levels_desc = np.arange(depth, -1, -1, dtype=np.int64)
    node_matrix = leaves_arr[:, None] >> (depth - levels_desc)[None, :]
    bucket_matrix = ((np.int64(1) << levels_desc) - 1)[None, :] + node_matrix
    base_matrix = (
        np.asarray(tree.level_base, dtype=np.int64)[levels_desc][None, :]
        + node_matrix * caps_arr[levels_desc][None, :]
    )
    occ_matrix = tree.bucket_occupancies[bucket_matrix]
    caps_desc = caps_arr[levels_desc].tolist()
    bucket_rows = bucket_matrix.tolist()
    occ_rows = occ_matrix.tolist()
    base_rows = base_matrix.tolist()
    counts_rows = counts.tolist()

    occ: dict[int, int] = {}
    occ_get = occ.get
    taken = bytearray(tail)
    rows: list[int] = []
    slots: list[int] = []
    for i in range(k):
        sorted_rows = order[i]
        cnt = counts_rows[i]
        path_buckets = bucket_rows[i]
        path_occ = occ_rows[i]
        path_bases = base_rows[i]
        # The pool is kept as a stack of half-open ranges into this path's
        # sorted row order instead of materialized row lists: in steady
        # state most pooled rows are never popped (their buckets are full),
        # so only the rows actually popped pay for a scalar array read.
        # Popping from the end of the last-appended range replays the
        # reference planner's order exactly (current level's group first,
        # each group in reverse within-group order).
        pool_ranges: list[list[int]] = []
        cursor = 0
        for j in range(depth + 1):
            group_len = cnt[j]
            if group_len:
                end = cursor + group_len
                pool_ranges.append([cursor, end])
                cursor = end
            if not pool_ranges:
                continue
            cap = caps_desc[j]
            bucket = path_buckets[j]
            occupancy = occ_get(bucket)
            if occupancy is None:
                occupancy = path_occ[j]
            if occupancy >= cap:
                continue
            base = path_bases[j]
            while occupancy < cap and pool_ranges:
                top = pool_ranges[-1]
                if top[0] == top[1]:
                    pool_ranges.pop()
                    continue
                top[1] -= 1
                row = int(sorted_rows[top[1]])
                if taken[row]:
                    continue
                taken[row] = 1
                rows.append(row)
                slots.append(base + occupancy)
                occupancy += 1
            occ[bucket] = occupancy
    return rows, slots, list(occ.keys()), list(occ.values())


def fused_fetch(read_ids, tags, stash_map, leaf):
    """Read one path into a dict stash mirror (fused drivers, recursion walks).

    ``read_ids`` empties the path and returns its real block ids, compacted
    by one vectorized mask so only the real blocks a path carries are
    touched (not every slot).  Their leaves ride the wire as block metadata:
    one ``take`` on the owner's tag array (the position map's, or a
    recursion level's labels), and the dict absorbs the pairs via C-level
    ``update(zip(...))`` — marginally ahead of a per-id ``item`` loop at
    PathORAM's ~9 real ids per path and clearly ahead on RingORAM evict
    paths, which carry several times that.  Compaction preserves
    root-to-leaf slot order, so dict insertion order is exactly the row
    order ``append_rows`` would have produced.
    """
    ids = read_ids(leaf)
    stash_map.update(zip(ids.tolist(), tags.take(ids).tolist()))


def fused_greedy_write_back(
    stash_map, groups, caps, level_base, node_base, slots, occ, depth, leaf
):
    """Greedy write-back from a dict stash mirror onto a freshly read path.

    The fused trace drivers' specialization of :func:`plan_greedy_write_back`
    for the one case they are always in: the path to ``leaf`` was just
    emptied by a full read, so every bucket on it has occupancy zero and the
    plan/commit split collapses into direct scalar slot writes.  Dict
    iteration order is insertion order — the same order the row stash
    enumerates — so grouping by xor bit length, LIFO pool selection and
    ascending slot assignment are all decision-identical to the reference
    planner; the scalar occupancy write per visited level equals the
    planner's full-path scatter because unvisited levels hold zero either
    way.  Chosen blocks are deleted from ``stash_map`` in place.

    ``groups`` is caller-owned scratch (``depth + 1`` empty lists, left
    empty again on return via clear-on-consume) so the steady-state loop
    allocates nothing beyond one small pool list.  Every stash entry is
    eligible — both leaves live below ``2**depth`` so the xor bit length
    never exceeds ``depth`` — and the level walk only runs where there is
    work: it starts at the deepest non-empty group and, whenever the pool
    drains, jumps straight to the next non-empty group instead of
    stepping through levels that cannot place anything.
    """
    present = []
    for resident, resident_leaf in stash_map.items():
        bits = (resident_leaf ^ leaf).bit_length()
        group = groups[bits]
        if not group:
            present.append(bits)
        group.append(resident)
    if not present:
        return
    present.sort()
    pool = []
    gi = 0
    ng = len(present)
    level = depth - present[0]
    while level >= 0:
        if gi < ng and present[gi] == depth - level:
            group = groups[present[gi]]
            pool.extend(group)
            group.clear()
            gi += 1
        count = len(pool)
        if not count:
            if gi == ng:
                break
            level = depth - present[gi]
            continue
        cap = caps[level]
        take = cap if cap < count else count
        node = leaf >> (depth - level)
        slot = level_base[level] + node * cap
        for offset in range(take):
            victim = pool.pop()
            slots[slot + offset] = victim
            del stash_map[victim]
        occ[node_base[level] + node] = take
        level -= 1
