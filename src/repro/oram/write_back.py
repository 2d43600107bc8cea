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
* :func:`fused_greedy_write_back` — the allocation-free write-back it runs
  on a bin's first path and on every dummy read, valid only immediately
  after the target path has been emptied by a read;
* :func:`fused_shared_write_back` — the same over a path that may already
  have occupants: the later paths of a bin that read several, which share
  refilled buckets with the earlier ones;
* :func:`held_write_back` — a held training step's read paths at its
  commit, filled as one subtree, level by level.

Both reads leave the same stash, slots and occupancies; both write-backs
are decision-identical to the per-object reference planner the tests hold
them to (``tests/oracle/write_back.py``).
"""

from bisect import bisect_left


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


def fused_greedy_write_back(
    stash_map, groups, caps, level_base, node_base, slots, occ, depth, leaf
):
    """Greedy write-back from a dict stash onto a freshly read path.

    The trace kernel's specialization of the reference greedy planner for
    a bin's first path (every PathORAM access's only one) and a dummy read:
    the path to ``leaf`` was just emptied by a full read — a bin's later
    fetches only empty more buckets — so every bucket on it has occupancy
    zero and the plan/commit split collapses into direct scalar slot
    writes.  Dict
    iteration order is insertion order — the same order the reference stash
    enumerates — so grouping by xor bit length, LIFO pool selection and
    ascending slot assignment are all decision-identical to the reference
    planner; the scalar occupancy write per visited level equals the
    planner's full-path scatter because unvisited levels hold zero either
    way.  Chosen blocks are deleted from ``stash_map`` in place.

    ``slots`` and ``occ`` are the tree's memoryviews
    (:attr:`~repro.oram.tree.ArrayTreeStorage.slot_view`,
    :attr:`~repro.oram.tree.ArrayTreeStorage.occupancy_view`): every item
    read or written is a Python int.
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


def fused_shared_write_back(
    stash_map, groups, caps, level_base, node_base, slots, occ, depth, leaf
):
    """Greedy write-back from a dict stash onto a path with occupants.

    The occupancy-aware generalisation of :func:`fused_greedy_write_back`,
    for the case it excludes: a bin that read several paths writes them
    back one after another, so a later path finds the buckets it shares
    with an earlier one already refilled.  Same grouping, same LIFO
    pool, same caller-owned ``groups`` scratch; the only difference is that
    each visited level reads its bucket's occupancy from ``occ``, takes no
    more than the free slots, appends behind the occupants, and carries
    the pool up past a full bucket.  Decision-identical to the reference
    planner over the same tree and stash order, and to
    :func:`fused_greedy_write_back` on a freshly emptied path.

    Kept apart from it on a measurement: with the occupancy read folded
    into the one function, the PathORAM workloads lost 2.7 %
    (``serve_zipf``, 0 of 10 pairs won) and 4.0 % (``replay_recursive``, 2
    of 10) — one occupancy read and three integer operations per visited
    level, at one to three write-backs an access (``docs/performance.md``,
    "One write-back or two").
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
        node = leaf >> (depth - level)
        bucket = node_base[level] + node
        occupancy = occ[bucket]
        free = cap - occupancy
        if free > 0:
            take = free if free < count else count
            slot = level_base[level] + node * cap + occupancy
            for offset in range(take):
                victim = pool.pop()
                slots[slot + offset] = victim
                del stash_map[victim]
            occ[bucket] = occupancy + take
        level -= 1



def held_write_back(stash_map, caps, level_base, node_base, slots, occ, depth, leaves):
    """Write a held step's read paths back at its commit, as one subtree.

    The paths ``leaves`` were read by one hold and none was written back,
    so together they span a subtree whose buckets are all empty.  Written
    one path after another, the first path's write-back would fill the
    shared top buckets with blocks that belong deeper on a later path, and
    the blocks left over would wait in the stash.  So the subtree is filled
    level by level, deepest first, and every block goes as deep as its leaf
    allows anywhere in the subtree.

    Each stash entry joins at its deepest bucket in the subtree: the node on
    its leaf's path at the longest prefix its leaf shares with a held leaf
    (one of the two neighbours of its leaf in sorted order).  Then, from
    the leaf level up to the root, each subtree node with candidates, in
    ascending node order, takes its pool: what its children left over (left
    child first) followed by the entries that join there, in stash order.
    It fills its free slots by popping from the pool's end, in ascending
    slot order, and passes the rest up to its parent.  What the root
    leaves stays in the stash, whose order is unchanged.
    ``tests/oracle/write_back.py`` states the same rule per bucket.
    """
    if not leaves:
        return
    paths = sorted(set(leaves))
    last = len(paths) - 1
    joining: list[dict[int, list[int]]] = [{} for _ in range(depth + 1)]
    for block_id, leaf in stash_map.items():
        index = bisect_left(paths, leaf)
        bits = (leaf ^ paths[index if index <= last else last]).bit_length()
        if index:
            below = (leaf ^ paths[index - 1]).bit_length()
            if below < bits:
                bits = below
        nodes = joining[depth - bits]
        node = leaf >> bits
        group = nodes.get(node)
        if group is None:
            nodes[node] = [block_id]
        else:
            group.append(block_id)
    carried: dict[int, list[int]] = {}
    for level in range(depth, -1, -1):
        joined = joining[level]
        if not joined and not carried:
            continue
        cap = caps[level]
        rising: dict[int, list[int]] = {}
        for node in sorted(joined.keys() | carried.keys()):
            pool = carried.get(node)
            if pool is None:
                pool = joined[node]
            elif node in joined:
                pool.extend(joined[node])
            bucket = node_base[level] + node
            used = occ[bucket]
            take = cap - used
            if take > len(pool):
                take = len(pool)
            if take > 0:
                slot = level_base[level] + node * cap + used
                for offset in range(take):
                    victim = pool.pop()
                    slots[slot + offset] = victim
                    del stash_map[victim]
                occ[bucket] = used + take
            if pool and level:
                parent = node >> 1
                group = rising.get(parent)
                if group is None:
                    rising[parent] = pool
                else:
                    group.extend(pool)
        carried = rising
