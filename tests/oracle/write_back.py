"""The per-object reference write-back planner.

The classic PathORAM eviction rule, occupancy aware: every stash block
whose assigned path shares a level with the accessed path may go there, as
deep as possible, into the free slots each bucket actually has.  The
shipped kernels of :mod:`repro.oram.write_back` are decision-identical to
it over the same tree and stash order.
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
