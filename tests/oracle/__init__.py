"""The per-object reference side: the oracle the shipped engines are held to.

The library ships one backend: :class:`repro.PathORAM` and
:class:`repro.LAORAMClient` run every access on the array engine's one
kernel.  This package keeps the per-object twins they are checked against —
:class:`ObjectPathORAM` and :class:`ObjectLAORAMClient` over
:class:`~oracle.block.Block` objects, list buckets
(:class:`~oracle.tree.TreeStorage`, :class:`~oracle.bucket.Bucket`), a
dict stash (:class:`~oracle.stash.Stash`) and the reference greedy planner
(:func:`~oracle.write_back.plan_greedy_write_back`), one access at a time
through the hook template of :class:`~oracle.engine.ObjectStorageEngine`.
For a fixed seed a reference engine and the shipped one make the same
decisions and count bit-identical traffic.

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
from oracle.engine import ObjectPathORAM, ObjectStorageEngine
from oracle.laoram import ObjectLAORAMClient
from oracle.stash import Stash
from oracle.tree import TreeStorage
from oracle.write_back import plan_greedy_write_back

#: family -> reference class, the counterpart of ``configs.ENGINE_CLASSES``.
REFERENCE_CLASSES = {"pathoram": ObjectPathORAM, "laoram": ObjectLAORAMClient}

__all__ = [
    "Block",
    "Bucket",
    "ObjectLAORAMClient",
    "ObjectPathORAM",
    "ObjectStorageEngine",
    "REFERENCE_CLASSES",
    "ShardedRunner",
    "Stash",
    "TreeStorage",
    "build_engine",
    "fetch_path",
    "plan_greedy_write_back",
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


def fetch_path(engine, leaf: int) -> None:
    """Trusted set-up: move the path to ``leaf`` into the stash, uncharged.

    The reference engine's ``_fetch_path`` hook, or on a shipped engine the
    tree's own path read (the scan or the gather the kernel binds) followed
    by its capacity check.
    """
    if isinstance(engine, ObjectStorageEngine):
        engine._fetch_path(leaf)
        return
    tags = engine.position_map.leaf_access()[0]
    engine.tree.path_reader(tags)(engine.stash.entries, leaf)
    engine.stash.check_capacity()


def update_leaf(engine, block_id: int, leaf: int) -> None:
    """Remap a stashed block: one position-map update, then its stash label."""
    if isinstance(engine, ObjectStorageEngine):
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
