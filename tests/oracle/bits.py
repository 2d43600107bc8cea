"""Path index arithmetic of the per-object reference tree.

Nodes are stored in breadth-first order, so the node at ``level`` on the
path to ``leaf`` of a tree with leaf level ``depth`` has index::

    (2**level - 1) + (leaf >> (depth - level))

The shipped kernels walk an array tree's paths in C
(``src/repro/oram/_write_back.c``); these are the scalar forms the
reference tree and its greedy planner walk with.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.utils.bits import _check_depth


def node_index(level: int, leaf: int, depth: int) -> int:
    """Breadth-first index of the node at ``level`` on the path to ``leaf``."""
    _check_depth(depth)
    if not 0 <= level <= depth:
        raise ConfigurationError(f"level {level} outside [0, {depth}]")
    if not 0 <= leaf < (1 << depth):
        raise ConfigurationError(f"leaf {leaf} outside [0, {1 << depth})")
    return ((1 << level) - 1) + (leaf >> (depth - level))


def path_node_indices(leaf: int, depth: int) -> list[int]:
    """Breadth-first indices of every node from the root down to ``leaf``."""
    return [node_index(level, leaf, depth) for level in range(depth + 1)]


def common_level(leaf_a: int, leaf_b: int, depth: int) -> int:
    """Deepest level shared by the paths to ``leaf_a`` and ``leaf_b``.

    Two identical leaves share the whole path (returns ``depth``); two leaves
    that diverge immediately below the root share only level 0.
    """
    _check_depth(depth)
    for leaf in (leaf_a, leaf_b):
        if not 0 <= leaf < (1 << depth):
            raise ConfigurationError(f"leaf {leaf} outside [0, {1 << depth})")
    xor = leaf_a ^ leaf_b
    if xor == 0:
        return depth
    return depth - xor.bit_length()
