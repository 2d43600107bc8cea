"""The C kernels: the planner's decisions, their guards, their loader.

``repro.oram.write_back.fetch``, ``write_back`` and ``held_write_back`` are
C (``src/repro/oram/_write_back.c``).  Here the write-backs are held, call
by call, to the per-object reference planner (``tests/oracle/write_back.py``)
on a fresh path and on a path whose shared buckets an earlier write-back
refilled (the fetch is held to the reference tree's read in
``tests/test_tree.py``); every operand any of them could read or write out
of bounds with is rejected before the first write; a steady-state call
allocates nothing that grows with the stash, and a fetch nothing but the
entries it inserts; and the loader builds them from source or fails loudly.
"""

import shutil
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oram import native
from repro.oram.tree import ArrayTreeStorage
from repro.oram.write_back import fetch, held_write_back, write_back

from oracle import Block, Stash, TreeStorage, plan_greedy_write_back


def node_bases(depth: int) -> tuple[int, ...]:
    return tuple((1 << level) - 1 for level in range(depth + 1))


def kernel_args(tree: ArrayTreeStorage, stash_map: dict, leaf, *tags):
    """A kernel's operands; the fetch's ``tags`` go before its leaf."""
    return (
        stash_map, tree.bucket_capacities, tree.level_base, node_bases(tree.depth),
        tree.slot_view, tree.occupancy_view, tree.depth, *tags, leaf,
    )


def stash_near(rng, depth: int, leaf: int, ids: np.ndarray) -> dict[int, int]:
    """``ids`` with leaves, about half of them under ``leaf`` at a random depth."""
    size = ids.size
    leaves = rng.integers(0, 1 << depth, size=size)
    low = rng.integers(0, depth + 1, size=size)
    under = (leaf >> low << low) | (leaves & ((1 << low) - 1))
    leaves = np.where(rng.random(size) < 0.5, under, leaves)
    return dict(zip(ids.tolist(), leaves.tolist()))


def write_both(shipped, reference, stash_map, stash, leaf) -> None:
    write_back(*kernel_args(shipped, stash_map, leaf))
    reference.write_path(leaf, plan_greedy_write_back(reference, stash, leaf))


def assert_same(shipped, reference, stash_map, stash) -> None:
    assert list(stash_map) == stash.block_ids
    assert list(stash_map.values()) == [block.leaf for block in stash]
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
    """A fresh path, then a second path whose shared buckets the first refilled."""
    depth, caps, first, second, (size, more), seed = case
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * (size + more) + 2)[: size + more]
    stash_map = stash_near(rng, depth, first, ids[:size])
    stash = Stash()
    stash.extend(Block(block_id=b, leaf=leaf) for b, leaf in stash_map.items())
    shipped = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    reference = TreeStorage(depth, caps, block_size_bytes=8)

    write_both(shipped, reference, stash_map, stash, first)
    assert_same(shipped, reference, stash_map, stash)

    # The second path's own blocks join the stash, as its read left them.
    arriving = stash_near(rng, depth, second, ids[size:])
    stash_map.update(arriving)
    stash.extend(Block(block_id=b, leaf=leaf) for b, leaf in arriving.items())
    write_both(shipped, reference, stash_map, stash, second)
    assert_same(shipped, reference, stash_map, stash)


# ----------------------------------------------------------------------
# Bad operands: rejected before the first write
# ----------------------------------------------------------------------
DEPTH = 3
CAPS = (4, 4, 4, 4)
#: The fetch's labels: one per id the tree below holds, and more.
TAGS = np.full(16, 5, dtype=np.int32)


def fresh(kernel=None):
    """A stash that fills part of the path to leaf 5, and its tree.

    The fetch's tree holds blocks 6 to 9 on that path, in that slot order
    in its leaf bucket; a write-back's is empty.
    """
    tree = ArrayTreeStorage(DEPTH, CAPS, block_size_bytes=8)
    if kernel is fetch:
        write_back(*kernel_args(tree, {block: 5 for block in range(9, 5, -1)}, 5))
        first = tree.level_base[DEPTH] + 5 * CAPS[DEPTH]
        assert tree.slot_array[first : first + 4].tolist() == [6, 7, 8, 9]
    return {block: 5 for block in range(6)}, tree


def call(kernel, **override):
    stash_map, tree = fresh(kernel)
    names = ["stash", "caps", "level_base", "node_base", "slots", "occ", "depth", "leaf"]
    tags = (TAGS,) if kernel is fetch else ()
    if kernel is fetch:
        names.insert(-1, "tags")
    args = dict(zip(
        names, kernel_args(tree, stash_map, [5] if kernel is held_write_back else 5, *tags),
    ))
    args.update(override)
    before = list(args["stash"].items()) if isinstance(args["stash"], dict) else None
    slots, occupancies = tree.slot_array.copy(), tree.bucket_occupancies.copy()
    with pytest.raises((TypeError, ValueError)) as raised:
        kernel(*args.values())
    # Nothing was read, written or placed.
    assert tree.slot_array.tobytes() == slots.tobytes()
    assert tree.bucket_occupancies.tobytes() == occupancies.tobytes()
    if before is not None:
        assert list(args["stash"].items()) == before
    return raised


KERNELS = pytest.mark.parametrize("kernel", [fetch, write_back, held_write_back])
#: The checks of stash entries: only a write-back reads them.
WRITE_BACKS = pytest.mark.parametrize("kernel", [write_back, held_write_back])


@KERNELS
@pytest.mark.parametrize("stash", [[(0, 5)], OrderedDict([(0, 5)])])
def test_a_stash_that_is_not_a_dict_is_rejected(kernel, stash):
    assert call(kernel, stash=stash).type is TypeError


@KERNELS
@pytest.mark.parametrize("leaf", [-1, 1 << DEPTH, 1 << 70])
def test_a_leaf_outside_the_tree_is_rejected(kernel, leaf):
    held = kernel is held_write_back
    assert call(kernel, leaf=[5, leaf] if held else leaf).type is ValueError


@KERNELS
@pytest.mark.parametrize("leaf", [5.0, "5", None])
def test_a_leaf_that_is_not_an_int_is_rejected(kernel, leaf):
    held = kernel is held_write_back
    assert call(kernel, leaf=[leaf] if held else leaf).type is TypeError


@WRITE_BACKS
@pytest.mark.parametrize("value", [-1, 1 << DEPTH])
def test_a_stash_leaf_outside_the_tree_is_rejected(kernel, value):
    stash_map = {block: 5 for block in range(6)}
    stash_map[6] = value
    assert call(kernel, stash=stash_map).type is ValueError


@WRITE_BACKS
@pytest.mark.parametrize("entry", [(6, 5.0), (6, np.int64(5)), (6, True), (6.0, 5), ("6", 5)])
def test_a_stash_entry_that_is_not_an_int_is_rejected(kernel, entry):
    stash_map = {block: 5 for block in range(6)}
    stash_map[entry[0]] = entry[1]
    assert call(kernel, stash=stash_map).type is TypeError


@WRITE_BACKS
@pytest.mark.parametrize("block", [-1, 1 << 31])
def test_a_stash_id_no_slot_can_hold_is_rejected(kernel, block):
    stash_map = {b: 5 for b in range(6)}
    stash_map[block] = 5
    assert call(kernel, stash=stash_map).type is ValueError


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
@pytest.mark.parametrize("base", ["level_base", "node_base"])
def test_a_base_that_points_past_the_buffer_is_rejected(kernel, base):
    _, tree = fresh(kernel)
    bases = list(tree.level_base if base == "level_base" else node_bases(DEPTH))
    bases[DEPTH] += 100
    assert call(kernel, **{base: bases}).type is ValueError


@KERNELS
@pytest.mark.parametrize("name", ["caps", "level_base", "node_base"])
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
    stash_map, tree = fresh(kernel)
    tags = (TAGS,) if kernel is fetch else ()
    with pytest.raises(TypeError):
        kernel(*kernel_args(tree, stash_map, 5, *tags)[:-1])


# ----------------------------------------------------------------------
# The fetch's own operands: its tags and the ids the path holds
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "tags", [TAGS.astype(np.int64), TAGS.astype(np.int16), TAGS.astype(np.float32)]
)
def test_tags_of_the_wrong_item_size_are_rejected(tags):
    assert call(fetch, tags=tags).type is ValueError


@pytest.mark.parametrize("tags", [list(TAGS), None, memoryview(np.tile(TAGS, 2))[::2]])
def test_tags_that_are_not_a_contiguous_buffer_are_rejected(tags):
    assert call(fetch, tags=tags).type is TypeError


def test_a_slot_id_past_the_tags_is_rejected():
    """The path holds ids 6 to 9, read in that order; eight tags label 0 to 7.

    Ids 6 and 7 come first and are good: the check of 8 must come before
    any of them is read in.
    """
    assert call(fetch, tags=TAGS[:8]).type is ValueError


@pytest.mark.parametrize("damage", ["negative id", "occupancy past capacity"])
def test_a_damaged_path_is_rejected(damage):
    """The last occupied slot read holds no id, or an occupancy passes its bucket's."""
    stash_map, tree = fresh(fetch)
    if damage == "negative id":
        tree.slot_array[tree.level_base[DEPTH] + 5 * CAPS[DEPTH] + 3] = -1
    else:
        tree.bucket_occupancies[(1 << DEPTH) - 1 + 5] = CAPS[DEPTH] + 1
    slots, occupancies = tree.slot_array.tobytes(), tree.bucket_occupancies.tobytes()
    with pytest.raises(ValueError):
        fetch(*kernel_args(tree, stash_map, 5, TAGS))
    assert stash_map == {block: 5 for block in range(6)}
    assert tree.slot_array.tobytes() == slots
    assert tree.bucket_occupancies.tobytes() == occupancies


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------
def test_a_steady_state_write_back_allocates_nothing_that_grows_with_the_stash():
    """Stashes of 10, 300 and 3,000 entries after a warm-up: the same traced peak.

    The kernel groups and pools the stash in one module-level scratch
    buffer that only grows; once a call of the largest size has grown it,
    a write-back allocates nothing at all.
    """
    depth, caps = 12, [4] * 13
    rng = np.random.default_rng(3)

    def case(size):
        ids = rng.permutation(4 * size)[:size]
        return stash_near(rng, depth, 7, ids), ArrayTreeStorage(depth, caps, block_size_bytes=8)

    stash_map, tree = case(3000)
    write_back(*kernel_args(tree, stash_map, 7))
    held_write_back(*kernel_args(tree, stash_map, [7, 9, 4000]))
    peaks = []
    for size in (10, 300, 3000):
        stash_map, tree = case(size)
        fill = case(size)
        args = kernel_args(tree, stash_map, 7)
        held_args = kernel_args(fill[1], fill[0], [7, 9, 4000])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_back(*args)
            held_write_back(*held_args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert tree.real_block_count() and fill[1].real_block_count()
    assert peaks == [0, 0, 0]


def traced(work) -> tuple[int, int]:
    """The traced memory ``work()`` leaves and its peak, from zero."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        work()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_a_steady_state_fetch_allocates_only_the_entries_it_inserts():
    """Two new ints per block read, into a stash with room: nothing else.

    The path's 20 ids and their labels lie past the small-int cache, so
    each entry the fetch inserts is a new key and a new value, and the
    stash has room for them; the kernel keeps no scratch, so what is
    traced is exactly those ints, and nothing is freed on the way.
    """
    depth, caps = 12, [4] * 13
    tree = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    write_back(*kernel_args(tree, {1000 + i: 7 for i in range(20)}, 7))
    tags = np.full(3000, 4000, dtype=np.int32)
    stash_map = {2000 + i: 7 for i in range(22)}
    # The first export of the tags' buffer: the path to leaf 4000 is empty.
    fetch(*kernel_args(tree, stash_map, 4000, tags))
    args = kernel_args(tree, stash_map, 7, tags)
    size = sys.getsizeof(stash_map)
    current, peak = traced(lambda: fetch(*args))
    assert len(stash_map) == 42 and tree.real_block_count() == 0
    assert sys.getsizeof(stash_map) == size
    kept = [None]
    one_int = traced(lambda: kept.__setitem__(0, len(stash_map) * 1000))[0]
    assert peak == current == 2 * 20 * one_int


# ----------------------------------------------------------------------
# The loader
# ----------------------------------------------------------------------
def test_the_loader_builds_into_an_empty_cache_and_loads_the_build(tmp_path):
    module = native.load(cache_dir=tmp_path)
    built = list(tmp_path.iterdir())
    assert [path.name for path in built] == [module.__file__.rsplit("/", 1)[1]]
    # A fresh build's scratch is empty: a first call with nothing to place.
    stash_map, tree = {}, ArrayTreeStorage(2, [1, 1, 1], block_size_bytes=8)
    assert module.held_write_back(*kernel_args(tree, stash_map, [])) is None
    stash_map = {0: 0}
    module.write_back(*kernel_args(tree, stash_map, 0))
    assert stash_map == {} and tree.slot_array.tolist()[-4] == 0
    # A second load finds the build.
    assert native.load(cache_dir=tmp_path, compiler="/nonexistent/cc").__file__ == module.__file__


def test_an_unwritable_cache_builds_in_a_temporary_directory(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("")
    module = native.load(cache_dir=blocked / "cache")
    built = Path(module.__file__)
    try:
        assert not built.is_relative_to(tmp_path) and built.exists()
        assert callable(module.held_write_back)
    finally:
        shutil.rmtree(built.parent)


def test_a_missing_compiler_fails_the_import_loudly(tmp_path):
    with pytest.raises(ImportError, match="no C compiler.*/nonexistent/cc"):
        native.load(cache_dir=tmp_path, compiler="/nonexistent/cc")
    assert list(tmp_path.iterdir()) == []


def test_missing_headers_fail_the_import_loudly(tmp_path):
    with pytest.raises(ImportError, match="Python.h"):
        native.load(cache_dir=tmp_path / "cache", include_dir=tmp_path)
