"""The C kernels through ``serve``: the planner's decisions, their guards, their loader.

``repro.oram.write_back`` exports two C entry points of the engine
(``src/repro/oram/_write_back.c``): ``serve``, one request, and ``walk``,
one access to a recursive position map (its third, the trainer's
``group_sum``, is ``tests/test_group_sum.py``'s).  The path read and both
write-backs run inside them, so here they run through ``serve`` on a bare
tree (``conftest.tree_request``): a dummy read whose leaf block holds a
chosen leaf fetches that path and writes it back, the commit bin writes
the held paths back as one subtree, and a held one-id bin reads the path
its block sits on and writes nothing back.  The write-backs are held,
request by request, to the per-object reference planner
(``tests/oracle/write_back.py``) on a fresh path and on a path whose shared
buckets an earlier write-back refilled (the read is held to the reference
tree's in ``tests/test_tree.py``), and on one path to a layout written out
by hand, which a capacity off by one fails without a stalled eviction;
every operand any of them could read or
write out of bounds with, the walk's included, is rejected before the
first write; a steady-state request allocates nothing, whatever the size
of its stash; and the loader builds them from source or fails loudly.
The stash itself, a :class:`~repro.oram.write_back.Stash`, checks its ids
and leaves when they are inserted (``tests/test_stash.py``).
"""

import shutil
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.oram import native
from repro.oram.position_map import PositionMap
from repro.oram.tree import ArrayTreeStorage
from repro.oram.write_back import Stash, serve, walk

from oracle import Block, TreeStorage, plan_greedy_write_back
from oracle import Stash as ReferenceStash
from conftest import dense_walk, stash_of, tree_request

#: A map for requests that read no labels: dummy reads and commit bins.
NO_LABELS = np.zeros(1, dtype=np.int32)


def dummy_read(tree, stash, leaf) -> dict:
    """A dummy read of the path to ``leaf``: fetched, then written back."""
    return tree_request(tree, stash, [], NO_LABELS.copy(), leaves=[leaf])


def commit_bin(tree, stash, leaves) -> dict:
    """The commit bin of the paths to ``leaves``: one subtree fill."""
    return tree_request(tree, stash, None, NO_LABELS.copy(), held=leaves)


def stash_near(rng, depth: int, leaf: int, ids: np.ndarray) -> dict[int, int]:
    """``ids`` with leaves, about half of them under ``leaf`` at a random depth."""
    size = ids.size
    leaves = rng.integers(0, 1 << depth, size=size)
    low = rng.integers(0, depth + 1, size=size)
    under = (leaf >> low << low) | (leaves & ((1 << low) - 1))
    leaves = np.where(rng.random(size) < 0.5, under, leaves)
    return dict(zip(ids.tolist(), leaves.tolist()))


def assert_same(shipped, reference, table, stash) -> None:
    assert table.items() == stash.items()
    assert shipped.slot_array.tolist() == reference.slot_array.tolist()
    assert np.array_equal(shipped.bucket_occupancies, reference.bucket_occupancies)


@st.composite
def path_write_backs(draw):
    """A tree, two paths sharing a prefix, and two stashes of up to 600 entries."""
    depth = draw(st.integers(2, 12))
    fat = draw(st.booleans())
    caps = [max(2, depth + 2 - level) if fat else 4 for level in range(depth + 1)]
    first = draw(st.integers(0, (1 << depth) - 1))
    shared = draw(st.integers(0, depth))
    second = first >> (depth - shared) << (depth - shared)
    second |= draw(st.integers(0, (1 << (depth - shared)) - 1))
    sizes = draw(st.integers(0, 600)), draw(st.integers(0, 600))
    return depth, caps, first, second, sizes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(path_write_backs())
def test_the_kernels_path_write_back_is_the_references(case):
    """A dummy read of a fresh path; a commit bin of one path onto a second
    path whose shared buckets the first refilled; then a LAORAM bin's two
    paths, the later one written back onto buckets the earlier refilled."""
    depth, caps, first, second, (size, more), seed = case
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * (size + more) + 2)[: size + more]
    resident = stash_near(rng, depth, first, ids[:size])
    table = stash_of(resident)
    stash = ReferenceStash()
    stash.extend(Block(block_id=b, leaf=leaf) for b, leaf in resident.items())
    shipped = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    reference = TreeStorage(depth, caps, block_size_bytes=8)

    serve(*dummy_read(shipped, table, first).values())
    stash.extend(reference.read_path(first))
    reference.write_path(first, plan_greedy_write_back(reference, stash, first))
    assert_same(shipped, reference, table, stash)

    # The second path's own blocks join the stash, as its read left them.
    arriving = stash_near(rng, depth, second, ids[size:])
    stash_of(arriving, into=table)
    stash.extend(Block(block_id=b, leaf=leaf) for b, leaf in arriving.items())
    serve(*commit_bin(shipped, table, [second]).values())
    reference.write_path(second, plan_greedy_write_back(reference, stash, second))
    assert_same(shipped, reference, table, stash)

    # A bin of two ids, one on each path: both paths read, then written back
    # path by path, the second onto the buckets the first refilled.
    on_first = [block.block_id for block in reference.peek_path(first)]
    on_second = [block.block_id for block in reference.peek_path(second)]
    assume(on_first and set(on_second) - {on_first[-1]})
    pair = on_first[-1], [b for b in on_second if b != on_first[-1]][-1]
    entries = np.zeros(ids.size * 10 + 2, dtype=np.int32)
    for block in reference.peek_path(first) + reference.peek_path(second):
        entries[block.block_id] = block.leaf
    entries[list(pair)] = first, second
    new_leaves = rng.integers(0, 1 << depth, size=2).tolist()
    args = tree_request(shipped, table, list(pair), entries, leaves=new_leaves)
    args["size"] = 2
    serve(*args.values())
    paths = list(dict.fromkeys([first, second]))
    for leaf in paths:
        stash.extend(reference.read_path(leaf))
    for block, leaf in zip(pair, new_leaves):
        stash.get(block).leaf = leaf
    for leaf in paths:
        reference.write_path(leaf, plan_greedy_write_back(reference, stash, leaf))
    assert_same(shipped, reference, table, stash)


#: Per tree: the bucket capacities, root first, then the slots of the path
#: to leaf 5 after the dummy read below, root first, and what stays stashed.
FILLED_PATHS = {
    "uniform": (
        (4, 4, 4, 4),
        [[19, 18, 5, 4], [9, 8, 7, 6], [17, 16, 11, 10], [15, 14, 13, 12]],
        [0, 1, 2, 3],
    ),
    "fat": (
        (5, 4, 3, 2),
        [[19, 18, 8, 7, 6], [12, 11, 10, 9], [17, 16, 13], [15, 14]],
        [0, 1, 2, 3, 4, 5],
    ),
}


@pytest.mark.parametrize("shape", list(FILLED_PATHS))
def test_a_write_back_fills_each_bucket_to_its_capacity(shape):
    """One dummy read of the path to leaf 5 with 20 stashed blocks: 0-15 on
    leaf 5, 16-17 on leaf 4 (the path's down to level 2) and 18-19 on leaf 0
    (its root only).  From the leaf up, each bucket fills to its capacity
    with the last of what reaches it, in stash order; no bin, no eviction."""
    caps, layout, stays = FILLED_PATHS[shape]
    depth = len(caps) - 1
    leaves = [5] * 16 + [4] * 2 + [0] * 2
    table = stash_of(dict(enumerate(leaves)))
    tree = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    serve(*dummy_read(tree, table, 5).values())

    nodes = [5 >> (depth - level) for level in range(depth + 1)]
    occupancies = tree.bucket_occupancies
    assert [occupancies[(1 << level) - 1 + node] for level, node in enumerate(nodes)] == list(caps)
    assert occupancies.sum() == sum(caps)
    first = [tree.level_base[level] + node * caps[level] for level, node in enumerate(nodes)]
    assert [tree.slot_array[f : f + cap].tolist() for f, cap in zip(first, caps)] == layout
    assert table.items() == [(block, leaves[block]) for block in stays]


# ----------------------------------------------------------------------
# Bad operands: rejected before the first write
# ----------------------------------------------------------------------
DEPTH = 3
CAPS = (4, 4, 4, 4)
#: The held bin's map: every block sits on leaf 5.
ENTRIES = np.full(16, 5, dtype=np.int32)
INT64_MAX = int(np.iinfo(np.int64).max)


def held_bin(tree, stash, leaf) -> dict:
    """A held one-id bin of block 6, which sits on leaf 5; its new leaf is ``leaf``."""
    return tree_request(tree, stash, [6], ENTRIES.copy(), leaves=[leaf], holding=True)


REQUESTS = {
    "held bin": held_bin,
    "dummy read": dummy_read,
    "commit bin": lambda tree, stash, leaf: commit_bin(tree, stash, [leaf]),
}


def leaf_operand(kernel, leaf) -> dict:
    """The operand that carries ``leaf``: the held paths, or the leaf block."""
    if kernel == "commit bin":
        return dict(held_paths=[5, leaf])
    if isinstance(leaf, int):
        leaf = min(leaf, INT64_MAX)
    return dict(leaf_buf=np.array([leaf]))


def fresh(kernel=None):
    """A stash that fills part of the path to leaf 5, and its tree.

    The held bin's tree holds blocks 6 to 9 on that path, in that slot order
    in its leaf bucket; a write-back's is empty.
    """
    tree = ArrayTreeStorage(DEPTH, CAPS, block_size_bytes=8)
    if kernel == "held bin":
        serve(*dummy_read(tree, stash_of({block: 5 for block in range(9, 5, -1)}), 5).values())
        first = tree.level_base[DEPTH] + 5 * CAPS[DEPTH]
        assert tree.slot_array[first : first + 4].tolist() == [6, 7, 8, 9]
    return stash_of({block: 5 for block in range(6)}), tree


def call(kernel, **override):
    stash, tree = fresh(kernel)
    args = REQUESTS[kernel](tree, stash, 5)
    args.update(override)
    before = args["stash"].items() if isinstance(args["stash"], Stash) else None
    slots, occupancies = tree.slot_array.copy(), tree.bucket_occupancies.copy()
    with pytest.raises((TypeError, ValueError)) as raised:
        serve(*args.values())
    # Nothing was read, written or placed.
    assert tree.slot_array.tobytes() == slots.tobytes()
    assert tree.bucket_occupancies.tobytes() == occupancies.tobytes()
    if before is not None:
        assert args["stash"].items() == before
    return raised


KERNELS = pytest.mark.parametrize("kernel", list(REQUESTS))
#: The check of stash leaves against the tree: only a write-back reads them.
WRITE_BACKS = pytest.mark.parametrize("kernel", ["dummy read", "commit bin"])


@KERNELS
@pytest.mark.parametrize("stash", [[(0, 5)], {0: 5}, OrderedDict([(0, 5)])])
def test_a_stash_that_is_not_a_Stash_is_rejected(kernel, stash):
    assert call(kernel, stash=stash).type is TypeError


@KERNELS
@pytest.mark.parametrize("leaf", [-1, 1 << DEPTH, 1 << 70])
def test_a_leaf_outside_the_tree_is_rejected(kernel, leaf):
    assert call(kernel, **leaf_operand(kernel, leaf)).type is ValueError


@KERNELS
@pytest.mark.parametrize("leaf", [5.0, "5", None])
def test_a_leaf_that_is_not_an_int_is_rejected(kernel, leaf):
    # A held leaf is a Python object; a leaf block must be int64 items.
    error = TypeError if kernel == "commit bin" else ValueError
    assert call(kernel, **leaf_operand(kernel, leaf)).type is error


@WRITE_BACKS
@pytest.mark.parametrize("value", [1 << DEPTH, 1 << 62])
def test_a_stash_leaf_outside_the_tree_is_rejected(kernel, value):
    """A leaf the stash holds for a deeper tree: every resident is checked
    before the first placement."""
    stash = stash_of({block: 5 for block in range(6)})
    stash[6] = value
    assert call(kernel, stash=stash).type is ValueError


@KERNELS
@pytest.mark.parametrize("buffer", ["slots", "occ"])
def test_a_read_only_buffer_is_rejected(kernel, buffer):
    _, tree = fresh(kernel)
    view = tree.slot_view if buffer == "slots" else tree.occupancy_view
    assert call(kernel, **{buffer: view.toreadonly()}).type is TypeError


@KERNELS
@pytest.mark.parametrize(
    "buffer, array",
    [
        ("slots", np.full(64, -1, dtype=np.int64)),
        ("slots", np.full(64, -1, dtype=np.int16)),
        ("slots", np.full(64, -1, dtype=np.float32)),
        ("occ", np.zeros(15, dtype=np.int32)),
        ("occ", np.zeros(15, dtype=np.float64)),
    ],
)
def test_a_buffer_of_the_wrong_item_size_is_rejected(kernel, buffer, array):
    assert call(kernel, **{buffer: memoryview(array)}).type is ValueError


@KERNELS
@pytest.mark.parametrize("buffer", [b"not writable", 7, [0] * 64])
def test_a_non_buffer_is_rejected(kernel, buffer):
    assert call(kernel, slots=buffer).type is TypeError


@KERNELS
def test_a_strided_buffer_is_rejected(kernel):
    strided = memoryview(np.full(128, -1, dtype=np.int32))[::2]
    assert call(kernel, slots=strided).type is TypeError


@KERNELS
@pytest.mark.parametrize(
    "buffer, size",
    # The path to leaf 5 writes slot 4 * 12 + 3 = 51 at most, bucket 12.
    [("slots", 51), ("occ", 12)],
)
def test_a_buffer_too_short_for_the_path_is_rejected(kernel, buffer, size):
    dtype = np.int32 if buffer == "slots" else np.uint8
    short = np.full(size, -1 if buffer == "slots" else 0, dtype=dtype)
    assert call(kernel, **{buffer: memoryview(short)}).type is ValueError


@KERNELS
def test_a_base_that_points_past_the_buffer_is_rejected(kernel):
    _, tree = fresh(kernel)
    bases = list(tree.level_base)
    bases[DEPTH] += 100
    assert call(kernel, level_base=bases).type is ValueError


@KERNELS
@pytest.mark.parametrize("name", ["caps", "level_base"])
@pytest.mark.parametrize("length", [DEPTH, DEPTH + 2])
def test_a_per_level_sequence_of_the_wrong_length_is_rejected(kernel, name, length):
    assert call(kernel, **{name: [0] * length}).type is ValueError


@KERNELS
@pytest.mark.parametrize("caps", [(4, 4, 4, -1), (4, 4, 4, 256), (4, 4, 4, 4.0)])
def test_a_capacity_no_occupancy_can_count_is_rejected(kernel, caps):
    assert call(kernel, caps=caps).type in (TypeError, ValueError)


@KERNELS
@pytest.mark.parametrize("depth", [63, 64, -1])
def test_a_depth_past_62_is_rejected(kernel, depth):
    assert call(kernel, depth=depth).type is ValueError


@KERNELS
def test_the_wrong_argument_count_is_rejected(kernel):
    stash, tree = fresh(kernel)
    with pytest.raises(TypeError):
        serve(*list(REQUESTS[kernel](tree, stash, 5).values())[:-1])


# ----------------------------------------------------------------------
# The read's own operands: the map's entries, which label what it reads,
# and the ids the path holds
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "entries", [ENTRIES.astype(np.int64), ENTRIES.astype(np.int16), ENTRIES.astype(np.float32)]
)
def test_entries_of_the_wrong_item_size_are_rejected(entries):
    assert call("held bin", update=dense_walk(entries)).type is ValueError


@pytest.mark.parametrize(
    "entries",
    [list(ENTRIES), None, memoryview(np.tile(ENTRIES, 2))[::2], memoryview(ENTRIES).toreadonly()],
)
def test_entries_that_are_not_a_writable_contiguous_buffer_are_rejected(entries):
    assert call("held bin", update=dense_walk(entries)).type is TypeError


def test_a_slot_id_past_the_entries_is_rejected():
    """The path holds ids 6 to 9, read in that order; eight entries label 0 to 7.

    Ids 6 and 7 come first and are good: the check of 8 must come before
    any of them is read in.
    """
    update = dense_walk(ENTRIES[:8].copy())
    assert call("held bin", update=update, limits=(8, 8, -1, 0, 0, 0, 0)).type is ValueError


@pytest.mark.parametrize("label", [-1, 1 << DEPTH])
def test_a_label_outside_the_tree_is_rejected(label):
    """Block 6's entry, the path the held bin would read: checked before the
    entry is swapped and before the read."""
    entries = ENTRIES.copy()
    entries[6] = label
    assert call("held bin", update=dense_walk(entries)).type is ValueError
    assert entries.tolist() == [5] * 6 + [label] + [5] * 9


@pytest.mark.parametrize(
    "damage", ["negative id", "occupancy past capacity", "occupancy past a filled slot"]
)
def test_a_damaged_path_is_rejected(damage):
    """The last occupied slot read holds no id, or an occupancy passes its
    bucket's: past an empty slot, or past one holding a good id, which only
    the occupancy check refuses."""
    stash, tree = fresh("held bin")
    if damage == "negative id":
        tree.slot_array[tree.level_base[DEPTH] + 5 * CAPS[DEPTH] + 3] = -1
    else:
        tree.bucket_occupancies[(1 << DEPTH) - 1 + 5] = CAPS[DEPTH] + 1
        if damage == "occupancy past a filled slot":
            tree.slot_array[tree.level_base[DEPTH] + 6 * CAPS[DEPTH]] = 10
    slots, occupancies = tree.slot_array.tobytes(), tree.bucket_occupancies.tobytes()
    with pytest.raises(ValueError):
        serve(*held_bin(tree, stash, 5).values())
    assert stash.items() == [(block, 5) for block in range(6)]
    assert tree.slot_array.tobytes() == slots
    assert tree.bucket_occupancies.tobytes() == occupancies


# ----------------------------------------------------------------------
# The walk's operands
# ----------------------------------------------------------------------
def recursive_map() -> PositionMap:
    """256 blocks, four labels a block: two levels, of 64 and 16 blocks."""
    return PositionMap(
        256, 128, np.random.default_rng(3), positions_per_block=4, cutoff_bytes=64, seed=3
    )


def map_state(pmap: PositionMap) -> list:
    """Every level's stash, slots, occupancies and labels, the packed labels
    (the logical ones first), the top map and the walk state."""
    levels = [
        (level.stash.items(), level.tree.slot_array.tobytes(),
         level.tree.bucket_occupancies.tobytes(), level.labels.tobytes())
        for level in pmap._levels
    ]
    payloads = [values.tobytes() for values in pmap._values]
    return [levels, payloads, pmap._top.tobytes(), pmap._walk_state.tobytes()]


def with_level(operands, index: int, position: int, value) -> tuple:
    """The walk ``operands`` with operand ``position`` of level ``index + 1``
    replaced by ``value``."""
    entries, chi, state, levels = operands
    level = list(levels[index])
    level[position] = value
    levels = levels[:index] + (tuple(level),) + levels[index + 1 :]
    return entries, chi, state, levels


#: Walk operands and arguments no walk may start on, and the error each
#: raises.  Level 1 is levels[0], level 2 (the top one) levels[1].
BAD_WALKS = {
    "a list": (lambda ops: list(ops), 7, 3, TypeError),
    "three operands": (lambda ops: ops[:3], 7, 3, TypeError),
    "levels in a list": (lambda ops: ops[:3] + (list(ops[3]),), 7, 3, TypeError),
    "read-only entries": (lambda ops: (memoryview(ops[0]).toreadonly(),) + ops[1:], 7, 3,
                          TypeError),
    "int64 entries": (lambda ops: (ops[0].astype(np.int64),) + ops[1:], 7, 3, ValueError),
    "one label a block": (lambda ops: (ops[0], 1) + ops[2:], 7, 3, ValueError),
    "a short state": (lambda ops: ops[:2] + (np.zeros(5, dtype=np.int64),) + ops[3:], 7, 3,
                      ValueError),
    "a level list": (lambda ops: ops[:3] + (ops[3][:1] + (list(ops[3][1]),),), 7, 3,
                     TypeError),
    "a level stash list": (lambda ops: with_level(ops, 1, 0, []), 7, 3, TypeError),
    "read-only labels": (lambda ops: with_level(ops, 0, 6, memoryview(ops[3][0][6]).toreadonly()),
                         7, 3, TypeError),
    "an int64 parent": (lambda ops: with_level(ops, 0, 7, ops[3][0][7].astype(np.int64)), 7, 3,
                        ValueError),
    "a short parent": (lambda ops: with_level(ops, 0, 7, ops[3][0][7][:1].copy()), 7, 3,
                       ValueError),
    "a short top map": (lambda ops: with_level(ops, 1, 7, ops[3][1][7][:0].copy()), 7, 3,
                        ValueError),
    "short labels": (lambda ops: with_level(ops, 0, 6, ops[3][0][6][:1].copy()), 200, 3,
                     ValueError),
    "integers not callable": (lambda ops: with_level(ops, 1, 8, 3), 7, 3, TypeError),
    "an empty leaf block": (lambda ops: with_level(ops, 0, 9, np.empty(0, dtype=np.int64)),
                            7, 3, ValueError),
    "a tuple read stream": (lambda ops: with_level(ops, 0, 10, ()), 7, 3, TypeError),
    "a negative id": (lambda ops: ops, -1, 3, ValueError),
    "an id past the map": (lambda ops: ops, 1 << 20, 3, ValueError),
    "a float id": (lambda ops: ops, 1.5, 3, TypeError),
    "a negative leaf": (lambda ops: ops, 7, -1, ValueError),
    "a leaf no label holds": (lambda ops: ops, 7, 1 << 31, ValueError),
}


@pytest.mark.parametrize("case", list(BAD_WALKS))
def test_a_walk_is_refused_before_its_first_write(case):
    change, block_id, leaf, error = BAD_WALKS[case]
    pmap = recursive_map()
    operands = pmap.leaf_access()[1]
    before = map_state(pmap)
    with pytest.raises(error):
        walk(change(operands), block_id, leaf)
    assert map_state(pmap) == before
    # The map's own operands walk: the old label out, the new one in.
    old = pmap.peek(7)
    assert walk(operands, 7, 3) == old and pmap.peek(7) == 3


#: Labels a walk of block 7 would read a path under, planted in the map's
#: own arrays: (the array, the index of block 7's label in it, the label).
#: Block 7 is block 1 of level 1, whose labels level 2 packs, and block 0
#: of level 2, whose labels the top map holds; neither is stashed.
BAD_LABELS = {
    "a logical label below zero": lambda pmap: (pmap._entries, 7, -1),
    "a level 1 label past its tree": lambda pmap: (pmap._values[1], 1,
                                                   1 << pmap._levels[0].depth),
    "a top-map label past the top tree": lambda pmap: (pmap._top, 0,
                                                       1 << pmap._levels[1].depth),
}


@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_a_label_outside_its_tree_is_refused_before_the_first_write(case):
    pmap = recursive_map()
    assert [len(level.stash) for level in pmap._levels] == [0, 0]
    array, index, label = BAD_LABELS[case](pmap)
    good = int(array[index])
    array[index] = label
    before = map_state(pmap)
    with pytest.raises(ValueError, match="outside"):
        pmap.update(7, 3)
    assert map_state(pmap) == before
    array[index] = good
    old = pmap.peek(7)
    assert pmap.update(7, 3) == old and pmap.peek(7) == 3


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------
def as_views(args: dict) -> tuple:
    """``args``' values, every array a memoryview: exporting a view
    allocates nothing, where a numpy array's first export allocates its
    format; and a tuple, which a call unpacks without a copy."""

    def view(value):
        if isinstance(value, tuple):
            return tuple(map(view, value))
        return memoryview(value) if isinstance(value, np.ndarray) else value

    return view(tuple(args.values()))


def traced(work) -> int:
    """The traced peak of ``work()``, from zero."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_steady_state_write_back_allocates_nothing_that_grows_with_the_stash():
    """Stashes of 10, 300 and 3,000 entries after a warm-up: the same traced peak.

    The kernel groups and pools the stash in one module-level scratch
    buffer that only grows; once a call of the largest size has grown it,
    a dummy read of an empty path, which places many of the residents near
    path 7, and a commit bin of three held paths allocate nothing at all,
    each on a fresh stash and tree of its size.
    """
    depth, caps = 12, [4] * 13
    rng = np.random.default_rng(3)

    def case(size):
        ids = rng.permutation(4 * size)[:size]
        stash = stash_of(stash_near(rng, depth, 7, ids))
        return stash, ArrayTreeStorage(depth, caps, block_size_bytes=8)

    stash, tree = case(3000)
    serve(*dummy_read(tree, stash, 7).values())
    serve(*commit_bin(tree, stash, [7, 9, 4000]).values())
    peaks = []
    for size in (10, 300, 3000):
        stash, tree = case(size)
        fill = case(size)
        args = as_views(dummy_read(tree, stash, 7))
        held_args = as_views(commit_bin(fill[1], fill[0], [7, 9, 4000]))
        peaks.append(traced(lambda: (serve(*args), serve(*held_args))))
        assert tree.real_block_count() and fill[1].real_block_count()
    assert peaks == [0, 0, 0]


@pytest.mark.parametrize("recursive", [False, True], ids=["dense map", "recursive map"])
@pytest.mark.parametrize("residents", [10, 300, 3000])
def test_a_steady_state_request_allocates_nothing(residents, recursive):
    """After a warm-up: a one-id bin's fetch and write-back, a dummy read and
    a held step's commit allocate 0 traced bytes, whatever the stash holds.

    The stash is a C table that grows with its residents and never shrinks,
    the write-backs work in one module-level scratch buffer that only grows,
    and a bin of up to 64 ids keeps its work on the stack, so once the
    warm-up has grown them a request allocates nothing: no boxed id or
    leaf, no key, no entry.  The residents' leaves share only the root with
    path 7; block ``residents`` sits on path 7 with eleven others and takes
    leaf 7 again, so every request reads and writes back the same path.  On
    a recursive map the bin's remap walks every level, whose stashes are
    tables too and whose operands the kernel parses onto its stack; each
    traced call starts the levels' leaf streams where the warm-up left
    them, so none refills its leaf block.
    """
    depth, caps = 12, [4] * 13
    rng = np.random.default_rng(residents)
    tags = np.full(residents + 12, 7, dtype=np.int32)
    tags[:residents] = rng.integers(1 << (depth - 1), 1 << depth, size=residents)
    tree = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    stash = stash_of(dict(enumerate(tags.tolist())))
    block = [residents]
    states = []
    walk_state = np.zeros((0, 3), dtype=np.int64)
    if recursive:
        pmap = PositionMap(
            len(tags), 1 << depth, rng, positions_per_block=4, cutoff_bytes=64, seed=residents
        )
        pmap.load_many(np.arange(len(tags)), tags)
        assert pmap._levels
        walk_state = pmap._walk_state

    def request(ids, **kwargs):
        args = tree_request(tree, stash, ids, tags, leaves=[7], **kwargs)
        if recursive:
            args["update"] = pmap.leaf_access()[1]
        states.append(args["state"])
        return args

    bin_args = as_views(request(block))
    dummy_args = as_views(request([]))
    hold = request(block, holding=True)
    hold_args = as_views(hold)
    commit = request(None)
    commit["held_paths"] = hold["held_paths"]
    commit_args = as_views(commit)

    def run(args, settled=None, trace=False):
        for state in states:
            state[:] = 0
        if settled is not None:
            walk_state[:] = settled
        return traced(lambda: serve(*args)) if trace else serve(*args)

    for _ in range(3):
        for args in (bin_args, dummy_args, hold_args, commit_args):
            run(args)
    settled = walk_state.copy()
    peaks = [run(bin_args, settled, trace=True)]
    # The bin's remap read a path of every level.
    assert (walk_state[:, 1] > settled[:, 1]).all()
    peaks.append(run(dummy_args, settled, trace=True))
    run(hold_args, settled)
    assert hold["held_paths"] == [7]
    peaks.append(run(commit_args, settled, trace=True))
    assert peaks == [0, 0, 0]
    assert hold["held_paths"] == []
    assert len(stash) + tree.real_block_count() == residents + 12
    assert residents - 4 <= len(stash) <= residents
    if recursive:
        assert pmap.peek(residents) == 7


# ----------------------------------------------------------------------
# The loader
# ----------------------------------------------------------------------
def test_the_loader_builds_into_an_empty_cache_and_loads_the_build(tmp_path):
    module = native.load(cache_dir=tmp_path)
    built = list(tmp_path.iterdir())
    assert [path.name for path in built] == [module.__file__.rsplit("/", 1)[1]]
    # A fresh build's scratch is empty: a first call with nothing to place.
    stash, tree = module.Stash(), ArrayTreeStorage(2, [1, 1, 1], block_size_bytes=8)
    assert module.serve(*commit_bin(tree, stash, []).values()) is None
    stash[0] = 0
    module.serve(*dummy_read(tree, stash, 0).values())
    assert len(stash) == 0 and tree.slot_array.tolist()[-4] == 0
    # A second load finds the build.
    assert native.load(cache_dir=tmp_path, compiler="/nonexistent/cc").__file__ == module.__file__


def test_an_unwritable_cache_builds_in_a_temporary_directory(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("")
    module = native.load(cache_dir=blocked / "cache")
    built = Path(module.__file__)
    try:
        assert not built.is_relative_to(tmp_path) and built.exists()
        assert callable(module.walk)
    finally:
        shutil.rmtree(built.parent)


def test_a_missing_compiler_fails_the_import_loudly(tmp_path):
    with pytest.raises(ImportError, match="no C compiler.*/nonexistent/cc"):
        native.load(cache_dir=tmp_path, compiler="/nonexistent/cc")
    assert list(tmp_path.iterdir()) == []


def test_missing_headers_fail_the_import_loudly(tmp_path):
    with pytest.raises(ImportError, match="Python.h"):
        native.load(cache_dir=tmp_path / "cache", include_dir=tmp_path)
