"""Shared fixtures for the LAORAM reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.superblock import LookaheadPlan
from repro.datasets.permutation import PermutationTraceGenerator
from repro.memory.timing import PAPER_TIMING
from repro.oram.config import ORAMConfig
from repro.oram.write_back import Stash

from oracle import ObjectLAORAMClient, ObjectPathORAM


@pytest.fixture
def small_config() -> ORAMConfig:
    """A small tree: 256 blocks of 64 bytes, bucket size 4."""
    return ORAMConfig(num_blocks=256, block_size_bytes=64, bucket_size=4, seed=7)


@pytest.fixture
def tiny_config() -> ORAMConfig:
    """A very small tree used where many engines are built in one test."""
    return ORAMConfig(num_blocks=64, block_size_bytes=32, bucket_size=4, seed=11)


@pytest.fixture
def small_path_oram(small_config) -> ObjectPathORAM:
    """PathORAM over the small tree."""
    return ObjectPathORAM(small_config)


@pytest.fixture
def small_laoram(small_config) -> ObjectLAORAMClient:
    """LAORAM client (superblock 4, normal tree) over the small tree."""
    return ObjectLAORAMClient(LAORAMConfig(oram=small_config, superblock_size=4))


@pytest.fixture
def permutation_trace():
    """Two-epoch permutation trace over 256 blocks."""
    return PermutationTraceGenerator(256, seed=3).generate(512)


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded generator for test-local randomness."""
    return np.random.default_rng(1234)


def bin_lists(plan) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """Per bin of ``plan``: its remap leaves, and the pairs serving it consumes.

    The leaves are what ``take_bin_remaps`` hands out, taken from a fresh
    twin of the plan so that ``plan`` itself consumes nothing; the
    ``(block id, occurrence)`` pairs are each distinct id's ``next`` at its
    last position in the bin, where that lies in a later bin.
    """
    twin = LookaheadPlan(
        plan.addresses, plan.bin_leaves, plan.superblock_size, plan.num_leaves, plan.start_index
    )
    ids, later = plan.addresses.tolist(), twin.next.tolist()
    size, first = plan.superblock_size, plan.start_index
    leaves, pairs = [], []
    lo = 0
    while lo < len(ids):
        hi = min(lo + size - (first + lo) % size, len(ids))
        leaves.append(twin.take_bin_remaps(first + lo, ids[lo:hi])[0].tolist())
        last = dict(zip(ids[lo:hi], range(lo, hi)))
        pairs.append([(b, first + later[p]) for b, p in last.items() if later[p] >= hi])
        lo = hi
    return leaves, pairs


def node_ids(tree):
    """Yield ``(level, node, block_ids)`` for every non-empty bucket of an array tree.

    Breadth-first, each bucket's ids in insertion order (its occupied slots
    are the bucket's first ``occupancy`` slots).
    """
    slots, occupancy = tree.slot_array, tree.bucket_occupancies
    for level, capacity in enumerate(tree.bucket_capacities):
        start = tree.level_base[level]
        for node in range(1 << level):
            held = int(occupancy[(1 << level) - 1 + node])
            if held:
                first = start + node * capacity
                yield level, node, slots[first : first + held]


def _no_draw(*args, **kwargs):
    raise AssertionError("the request drew past its planted leaves")


def dense_walk(entries) -> tuple:
    """The walk operands of a dense map over ``entries``: no level."""
    return (entries, 2, np.zeros((0, 3), dtype=np.int64), ())


def stash_of(mapping, into=None):
    """``mapping``'s ``id -> leaf`` pairs, in order, assigned in ``into``
    (a new :class:`~repro.oram.write_back.Stash` by default)."""
    stash = Stash() if into is None else into
    stash.extend(
        np.array(list(mapping), dtype=np.int64), np.array(list(mapping.values()), dtype=np.int64)
    )
    return stash


def tree_request(tree, stash, ids, entries, *, leaves=(0,), held=(), holding=False):
    """``serve``'s operands, by name, for one request on a bare array tree.

    ``ids`` is the request: int64 ids in one-id bins, an empty one a dummy
    read, ``None`` the commit bin of the paths ``held``.  ``entries`` is the
    dense map (int32, writable; one entry per block), which also labels the
    blocks a read brings in.  ``leaves`` is the leaf block, drawn from its
    start: a dummy read's path, a bin's new leaves; a draw past it raises.
    No plan, no stash capacity, no eviction, no observer.
    """
    return dict(
        stash=stash, caps=tree.bucket_capacities, level_base=tree.level_base,
        slots=tree.slot_view, occ=tree.occupancy_view, depth=tree.depth,
        update=dense_walk(entries),
        ids=None if ids is None else np.asarray(ids, dtype=np.int64),
        size=1, remaps=None, by_position=0, lookup=None, integers=_no_draw,
        leaf_buf=np.array(leaves, dtype=np.int64),
        limits=(len(entries), 1 << tree.depth, -1, 0, 0, 0, 0),
        held_paths=list(held), holding=holding, observer=None, history=None,
        state=np.zeros(9, dtype=np.int64),
    )


def closed_form_clock(engine) -> float:
    """Simulated seconds as ``TrafficSnapshot`` and tree geometry spell them.

    Independent of the counters the price reads besides the traffic totals:
    recursion activations come from bytes, not from ``posmap_buckets_*``,
    and the terms are summed in another order, so the two agree to ~1e-15,
    not bit for bit.  An event that is lost, repeated or counted at another
    geometry shows at 1e-12.
    """
    snap, timing = engine.statistics, PAPER_TIMING
    requests = snap.path_reads + snap.dummy_reads + snap.path_writes
    activations = snap.buckets_read + snap.buckets_written
    moved = snap.total_bytes + snap.posmap_total_bytes
    requests += snap.posmap_path_reads + snap.posmap_path_writes
    if snap.posmap_total_bytes:
        # Recursion trees differ in depth but share one bucket shape.
        tree = engine.position_map._levels[0].tree
        bucket_bytes = tree.bucket_capacities[0] * tree.stored_block_bytes
        assert snap.posmap_total_bytes % bucket_bytes == 0
        activations += snap.posmap_total_bytes // bucket_bytes
    dram, link = timing.dram, timing.interconnect
    return (
        snap.logical_accesses * timing.client_overhead_us * 1e-6
        + requests * link.request_latency_us * 1e-6
        + activations * dram.row_access_latency_ns * 1e-9
        + moved / dram.bandwidth_bytes_per_s
        + moved / link.bandwidth_bytes_per_s
    )
