"""The per-object reference write-back planner.

The classic PathORAM eviction rule, occupancy aware: every stash block
whose assigned path shares a level with the accessed path may go there, as
deep as possible, into the free slots each bucket actually has.  The
shipped kernels of :mod:`repro.oram.write_back` are decision-identical to
it over the same tree and stash order.  A held training step's commit writes
its read paths back as one subtree instead
(:func:`plan_subtree_write_back`).
"""

from __future__ import annotations

from oracle.bits import common_level
from oracle.block import Block
from oracle.stash import Stash
from oracle.tree import TreeStorage


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


def plan_subtree_write_back(
    tree: TreeStorage, stash: Stash, leaves: list[int]
) -> dict[int, list[Block]]:
    """Choose stash blocks to write onto the subtree the paths to ``leaves`` span.

    Returns a mapping ``bucket index -> blocks``; chosen blocks are removed
    from the stash.  The buckets are visited from the leaf level up to the
    root, left to right within a level.  A bucket's pool is what its two
    children did not place (left child first), then the stash blocks whose
    deepest bucket in the subtree it is, in stash order; it takes its free
    slots' worth from the pool's end, and the rest goes on to its parent.
    """
    if not leaves:
        # A held step whose blocks were all stash hits read no path: an
        # empty subtree takes nothing.
        return {}
    depth = tree.depth
    subtree = {
        (level, leaf >> (depth - level)) for leaf in leaves for level in range(depth + 1)
    }
    joining: dict[tuple[int, int], list[int]] = {}
    for block in stash:
        level = max(
            level for level in range(depth + 1)
            if (level, block.leaf >> (depth - level)) in subtree
        )
        joining.setdefault((level, block.leaf >> (depth - level)), []).append(block.block_id)

    placement: dict[int, list[Block]] = {}
    left_over: dict[tuple[int, int], list[int]] = {}
    for level in range(depth, -1, -1):
        for node in sorted(node for at, node in subtree if at == level):
            pool = left_over.pop((level, node), []) + joining.get((level, node), [])
            index = (1 << level) - 1 + node
            free = tree.bucket_by_index(index).free_slots
            chosen = [stash.pop(pool.pop()) for _ in range(min(free, len(pool)))]
            if chosen:
                placement[index] = chosen
            if level:
                left_over.setdefault((level - 1, node >> 1), []).extend(pool)
    return placement
