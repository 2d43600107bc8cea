"""The per-object reference side: the oracle the shipped engines are held to.

The library ships one engine per family, :class:`repro.PathORAM` and
:class:`repro.LAORAMClient`, both on one array kernel.  This package keeps
their per-object twins — :class:`ObjectPathORAM` and
:class:`ObjectLAORAMClient` over :class:`~oracle.block.Block` objects, list
buckets (:class:`~oracle.tree.TreeStorage`, :class:`~oracle.bucket.Bucket`),
a dict stash (:class:`~oracle.stash.Stash`), the reference greedy planner
(:func:`~oracle.write_back.plan_greedy_write_back`) and a dict position map
with naive recursion (:class:`~oracle.position_map.ObjectPositionMap`) —
written from Path ORAM and the LAORAM paper, one access or one superblock
at a time.  They share no scheduling code with the library:
``tests/test_oracle_independence.py`` holds every ``repro`` import under
this package to the configuration types, the RNG and bit helpers, the
exceptions, the traffic counter and its price, the engine interface, the
read-only row view and the builder glue below.  For a fixed seed a
reference engine and the shipped one make the same decisions and count
bit-identical traffic.

:func:`build_engine` and :func:`ShardedRunner` are the library's builders
with one more switch: ``fast=False`` / ``use_fast_engine=False`` puts the
reference classes where the library looks a family up.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.experiments import configs
from repro.experiments import sharded

from oracle.block import Block
from oracle.bucket import Bucket
from oracle.engine import ObjectPathORAM
from oracle.laoram import ObjectLAORAMClient
from oracle.stash import Stash
from oracle.tree import TreeStorage
from oracle.write_back import plan_greedy_write_back, plan_subtree_write_back

#: family -> reference class, the counterpart of ``configs.ENGINE_CLASSES``.
REFERENCE_CLASSES = {"pathoram": ObjectPathORAM, "laoram": ObjectLAORAMClient}

__all__ = [
    "Block",
    "Bucket",
    "ObjectLAORAMClient",
    "ObjectPathORAM",
    "REFERENCE_CLASSES",
    "ShardedRunner",
    "Stash",
    "TreeStorage",
    "build_engine",
    "engine_state",
    "fetch_path",
    "plan_greedy_write_back",
    "plan_subtree_write_back",
    "reference_families",
    "update_leaf",
]


@contextmanager
def reference_families():
    """Inside the block, the library builds every family's reference class.

    The family table is the one ``build_engine`` and the shard engine specs
    read; worker processes forked inside the block inherit the swap.
    """
    table = configs.ENGINE_CLASSES
    shipped = dict(table)
    table.update(REFERENCE_CLASSES)
    try:
        yield
    finally:
        table.update(shipped)


def build_engine(label: str, oram_config, *args, fast: bool = False, **kwargs):
    """The library's ``build_engine``; ``fast=False`` builds the reference."""
    if fast:
        return configs.build_engine(label, oram_config, *args, **kwargs)
    with reference_families():
        return configs.build_engine(label, oram_config, *args, **kwargs)


def engine_state(engine) -> dict:
    """Everything a same-seed twin must reproduce, field for field.

    Counters and their price, the position map, the stash in order with its
    labels, the paths an open hold read, every tree slot (breadth-first,
    each bucket's ids in insertion order), every recursion level's slots,
    stash in order and block labels, and the client footprint; the same
    accessors on either engine, every stash read as its ``(id, leaf)``
    pairs in order through its ``items()``.
    """
    return {
        "statistics": engine.statistics,
        "simulated_time_s": engine.simulated_time_s,
        "position_map": engine.position_map.as_array().tolist(),
        "stash": list(engine.stash.items()),
        "held_paths": list(engine._held_paths),
        "slots": engine.tree.slot_array.tolist(),
        "levels": [
            {
                "slots": level.tree.slot_array.tolist(),
                "stash": list(level.stash.items()),
                "labels": level.labels.tolist(),
            }
            for level in engine.position_map._levels
        ],
        "client_memory_bytes": engine.client_memory_bytes(),
    }


def fetch_path(engine, leaf: int) -> None:
    """Trusted set-up: move the path to ``leaf`` into the stash, uncharged.

    The reference engine's own path fetch, or on a shipped engine the
    reference tree's read (``TreeStorage.read_path``: root to leaf, each
    bucket's blocks in insertion order) over its slot and occupancy arrays,
    each block under its tag, followed by its capacity check.  The shipped
    kernel's C path read is held to this read in ``tests/test_tree.py``; the
    oracle imports no library kernel.
    """
    if isinstance(engine, ObjectPathORAM):
        engine._fetch_path(leaf)
        return
    tree = engine.tree
    slots, occupancies = tree.slot_array, tree.bucket_occupancies
    tags = engine.position_map.leaf_access()[0]
    for level, capacity in enumerate(tree.bucket_capacities):
        node = leaf >> (tree.depth - level)
        bucket = (1 << level) - 1 + node
        start = tree.level_base[level] + node * capacity
        stop = start + int(occupancies[bucket])
        for block in slots[start:stop].tolist():
            engine.stash.entries[block] = int(tags[block])
        slots[start:stop] = -1
        occupancies[bucket] = 0
    engine.stash.check_capacity()


def update_leaf(engine, block_id: int, leaf: int) -> None:
    """Remap a stashed block: one position-map update, then its stash label."""
    if isinstance(engine, ObjectPathORAM):
        engine._update_leaf(block_id, leaf)
        return
    engine.position_map.update(block_id, leaf)
    engine.stash.entries[block_id] = leaf


def ShardedRunner(*args, use_fast_engine: bool = True, **kwargs):
    """The library's ``ShardedRunner``; ``use_fast_engine=False`` shards
    reference engines (built, in process or in forked workers, before this
    returns)."""
    if use_fast_engine:
        return sharded.ShardedRunner(*args, **kwargs)
    with reference_families():
        return sharded.ShardedRunner(*args, **kwargs)
