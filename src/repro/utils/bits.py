"""Geometry of the complete binary trees used by Path-ORAM style storage.

The ORAM tree has levels ``0 .. depth`` where level 0 is the root and level
``depth`` holds the leaves.  There are ``2**depth`` leaves, labelled
``0 .. 2**depth - 1`` from left to right; a *path* is identified by its leaf
label.  Nodes are stored in a flat array in breadth-first order, so the node
at ``level`` on the path to ``leaf`` has index::

    (2**level - 1) + (leaf >> (depth - level))
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


def required_depth(num_blocks: int) -> int:
    """Return the tree depth (leaf level) used for ``num_blocks`` blocks.

    Following the original PathORAM construction the tree has
    ``2**ceil(log2(num_blocks))`` leaves, i.e. at least one leaf per block.
    A single block still gets a tree of depth 1 so that there are at least
    two distinct paths to randomise over.
    """
    if num_blocks <= 0:
        raise ConfigurationError("num_blocks must be positive, got %r" % (num_blocks,))
    depth = max(1, (num_blocks - 1).bit_length())
    return depth


def num_leaves(depth: int) -> int:
    """Number of leaves of a tree with leaf level ``depth``."""
    _check_depth(depth)
    return 1 << depth


def num_nodes(depth: int) -> int:
    """Total number of nodes (buckets) of a tree with leaf level ``depth``."""
    _check_depth(depth)
    return (1 << (depth + 1)) - 1


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ConfigurationError("tree depth must be >= 1, got %r" % (depth,))
