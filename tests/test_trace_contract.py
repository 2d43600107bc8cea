"""One trace contract for every engine.

``ObliviousMemory`` declares three verbs — ``run_trace`` (replay a sequence
known in advance; engines may look ahead), ``access_many`` and
``write_many`` (serve now) — and every engine answers them with the same
signature and the same data semantics, so callers never dispatch on the
engine they hold.  This suite checks that over the whole matrix: every
family, reference and array twin, dense and recursive position map, dict and
``(rows, dim)`` matrix payload stores.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    StashOverflowError,
)
from repro.experiments.configs import build_oram_config
from repro.memory.accounting import TrafficCounter
from repro.oram.base import AccessOp, ObliviousMemory

from oracle import build_engine, engine_state
from conftest import closed_form_clock, node_ids

NUM_BLOCKS = 128
DIM = 4
VERBS = ("run_trace", "access_many", "write_many")
TREE_LABELS = (
    "PathORAM",
    "Normal/S2",
    "Normal/S4",
    "Normal/S8",
    "Fat/S2",
    "Fat/S4",
    "Fat/S8",
)
LOOKAHEAD_LABELS = ("Normal/S4", "Fat/S8")

#: (label, fast, recursive_posmap): the insecure baseline has neither a twin
#: nor a position map.
ENGINES = [("Insecure", False, False)] + [
    (label, fast, recursive)
    for label in TREE_LABELS
    for fast in (False, True)
    for recursive in (False, True)
]


def make_engine(label: str, fast: bool, recursive: bool, **overrides):
    # chi=4 with a 64-byte cutoff puts two recursion levels under 128 blocks.
    config = build_oram_config(
        num_blocks=NUM_BLOCKS,
        block_size_bytes=4 * DIM,
        seed=17,
        recursive_posmap=recursive,
        posmap_positions_per_block=4,
        posmap_cutoff_bytes=64,
    ).with_overrides(**overrides)
    return build_engine(label, config, fast=fast)


def parameters(func) -> list[tuple]:
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(func).parameters.values()
    ]


@pytest.mark.parametrize("label,fast,recursive", ENGINES)
def test_verbs_have_the_base_signatures(label, fast, recursive):
    engine = make_engine(label, fast, recursive)
    for verb in VERBS:
        assert parameters(getattr(type(engine), verb)) == parameters(
            getattr(ObliviousMemory, verb)
        ), f"{type(engine).__name__}.{verb}"


@pytest.mark.parametrize("store", ["dict", "matrix"])
@pytest.mark.parametrize("label,fast,recursive", ENGINES)
def test_reads_return_the_last_write(label, fast, recursive, store):
    engine = make_engine(label, fast, recursive)
    rng = np.random.default_rng(5)
    if store == "matrix":
        initial = rng.normal(size=(NUM_BLOCKS, DIM)).astype(np.float32)
        engine.load_payloads(initial.copy())
        expected = initial.copy()
        written = rng.normal(size=(37, DIM)).astype(np.float32)
    else:
        expected = [("initial", block_id) for block_id in range(NUM_BLOCKS)]
        engine.load_payloads(dict(enumerate(expected)))
        written = [("written", index) for index in range(37)]
    # Neither length is a multiple of a superblock size, and both streams
    # repeat ids: the duplicates below must keep their last payload.
    write_ids = rng.integers(0, NUM_BLOCKS, size=37)
    write_ids[[5, 20, 36]] = write_ids[0]
    read_ids = np.concatenate(
        [write_ids[:12], rng.integers(0, NUM_BLOCKS, size=41)]
    )
    for block_id, payload in zip(write_ids.tolist(), written):
        expected[block_id] = payload

    engine.write_many(write_ids, written)
    replayed = engine.run_trace(read_ids)
    served = engine.access_many(read_ids)

    wanted = [expected[block_id] for block_id in read_ids.tolist()]
    for got in (replayed, served):
        assert len(got) == len(wanted)
        if store == "matrix":
            assert np.array_equal(np.asarray(got), np.asarray(wanted))
        else:
            assert list(got) == wanted
    assert engine.statistics.logical_accesses == len(write_ids) + 2 * len(read_ids)
    if label != "Insecure":
        assert engine.total_real_blocks() == NUM_BLOCKS


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("label", LOOKAHEAD_LABELS)
def test_lookahead_replay_is_read_only(label, fast):
    # No caller replays writes through the lookahead pipeline; asking for it
    # must name the verb that does serve them.
    engine = make_engine(label, fast, False)
    with pytest.raises(ConfigurationError, match="write_many"):
        engine.run_trace([1, 2], AccessOp.WRITE, ["a", "b"])
    with pytest.raises(ConfigurationError, match="write_many"):
        engine.run_trace([1, 2], ops=[AccessOp.READ, AccessOp.READ])
    assert engine.statistics.logical_accesses == 0


@pytest.mark.parametrize("label,fast,recursive", ENGINES)
def test_write_many_rejects_a_length_mismatch(label, fast, recursive):
    engine = make_engine(label, fast, recursive)
    with pytest.raises(ConfigurationError):
        engine.write_many([1, 2, 3], ["a", "b"])
    assert engine.statistics.logical_accesses == 0


# ----------------------------------------------------------------------
# One leaf-access contract: the fast drivers equal their oracle under
# either position map
# ----------------------------------------------------------------------
def mixed_trace() -> np.ndarray:
    """Skewed ids (stash hits), a sequential run, a uniform tail."""
    rng = np.random.default_rng(23)
    return np.concatenate(
        [
            rng.zipf(1.3, size=300) % NUM_BLOCKS,
            np.arange(30, 90),
            rng.integers(0, NUM_BLOCKS, size=150),
        ]
    )


def tree_layout(engine) -> dict[int, list[int]]:
    """Breadth-first bucket index -> ids in insertion order."""
    return {
        (1 << level) - 1 + node: ids.tolist()
        for level, node, ids in node_ids(engine.tree)
    }


def assert_twins_agree(reference, fast) -> None:
    """A reference engine's whole state (or ``engine_state``) equals its fast twin's."""
    want, got = (
        state if isinstance(state, dict) else engine_state(state)
        for state in (reference, fast)
    )
    assert {key: got[key] for key in want} == want


@pytest.mark.parametrize("writes", [False, True])
@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("label", ["PathORAM"])
def test_fast_run_trace_equals_the_generic_loop(label, recursive, writes, monkeypatch):
    trace = mixed_trace()
    ops = payloads = None
    if writes:
        ops = [AccessOp.WRITE if i % 3 == 0 else AccessOp.READ for i in range(len(trace))]
        payloads = [("written", i) for i in range(len(trace))]
    fast = make_engine(label, True, recursive)
    oracle = make_engine(label, False, recursive)
    for engine in (fast, oracle):
        engine.load_payloads({b: ("initial", b) for b in range(NUM_BLOCKS)})

    calls = []
    kernel = type(fast)._run_bins

    def spy(self, block_ids, *args):
        calls.append(type(self.position_map).__name__)
        return kernel(self, block_ids, *args)

    monkeypatch.setattr(type(fast), "_run_bins", spy)

    got = fast.run_trace(trace, ops, payloads)
    # The per-object reference's generic loop, one access at a time.
    want = ObliviousMemory.run_trace(oracle, trace, ops, payloads)

    # PathORAM ran the kernel once, whichever map the engine holds: no
    # fallback.
    assert calls == [type(fast.position_map).__name__]
    assert list(got) == list(want)
    # simulated_time_s compares with ==: the clock is the closed form of
    # integer charge counts, whatever order and grouping they arrived in.
    assert_twins_agree(oracle, fast)
    assert (fast.statistics.posmap_path_reads > 0) == recursive


#: Bucket sizes that leave well over a hundred residents in a 1024-block
#: engine's stash: single accesses (one-id bins on the array backend) on
#: large and small stashes alike.
LARGE_STASH_BUCKETS = {"PathORAM": 1, "Normal/S4": 1, "Fat/S8": 2}


@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("label", LARGE_STASH_BUCKETS)
def test_per_access_hooks_match_the_object_engine_on_a_large_stash(label, recursive):
    # One access() / dummy_access() at a time: a one-id or an empty bin on
    # the array backend.  LAORAM runs under an installed plan, whose remaps
    # park blocks in the stash until their bin comes up.
    rng = np.random.default_rng(23)
    trace = np.concatenate(
        [
            rng.zipf(1.3, size=400) % 1024,
            np.arange(30, 230),
            rng.integers(0, 1024, size=1400),
        ]
    )
    states, peaks = [], []
    for fast in (False, True):
        config = build_oram_config(
            num_blocks=1024,
            block_size_bytes=4 * DIM,
            bucket_size=LARGE_STASH_BUCKETS[label],
            seed=17,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=512,
        ).with_overrides(eviction_threshold=180, eviction_target=150)
        counter = TrafficCounter(record_stash_history=True)
        engine = build_engine(label, config, fast=fast, counter=counter)
        if label in LOOKAHEAD_LABELS:
            engine.apply_initial_placement(engine.preprocess(trace))
            assert engine.plan is not None
        for index, block_id in enumerate(trace.tolist()):
            engine.access(block_id)
            if index % 40 == 0:
                engine.dummy_access()
        state = engine_state(engine)
        state.update(stash_history=list(counter.stash_history))
        states.append(state)
        peaks.append(counter.snapshot().stash_peak)
    assert_twins_agree(*states)
    assert peaks[0] == peaks[1] > 120


#: Every superblock size the paper evaluates, on both tree shapes.
BIN_LABELS = ("Normal/S2", "Normal/S4", "Normal/S8", "Fat/S4", "Fat/S8")


@pytest.mark.parametrize("window", [None, 101])
@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("label", BIN_LABELS)
def test_fast_lookahead_bins_match_the_object_client(label, recursive, window):
    # 509 accesses end every superblock size on a partial bin, and a
    # 101-access lookahead window puts another one at each window seam.
    trace = mixed_trace()[:509]
    rows = [("written", i) for i in range(64)]
    results, states = [], []
    for fast in (False, True):
        config = build_oram_config(
            num_blocks=NUM_BLOCKS,
            block_size_bytes=4 * DIM,
            seed=17,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=64,
        )
        counter = TrafficCounter(record_stash_history=True)
        engine = build_engine(label, config, fast=fast, counter=counter)
        engine.laoram_config = dataclasses.replace(
            engine.laoram_config, lookahead_accesses=window
        )
        engine.load_payloads({b: ("initial", b) for b in range(NUM_BLOCKS)})
        # Planned bins (windows with precomputed remaps), plan-free bins
        # under the stale plan, bins served now under a plan made for them
        # (the trainer's pattern), and empty calls.
        replayed = engine.run_trace(trace)
        engine.write_many(trace[:64], rows)
        served = engine.access_many(trace[:200])
        engine.preprocess(trace[100:300], start_index=engine.trace_cursor)
        planned = engine.access_many(trace[100:300])
        assert list(engine.run_trace([])) == list(engine.access_many([])) == []
        engine.write_many([], [])
        results.append((list(replayed), list(served), list(planned)))
        state = engine_state(engine)
        state.update(
            trace_cursor=engine.trace_cursor,
            stash_history=list(counter.stash_history),
        )
        states.append(state)
    assert results[0] == results[1]
    assert_twins_agree(*states)
    assert states[0]["trace_cursor"] == 509 + 64 + 200 + 200
    assert len(states[0]["stash_history"]) > 0
    assert (states[0]["statistics"].posmap_path_reads > 0) == recursive


#: How a caller leaves the installed plan: an id that is not the planned
#: one, a request ending inside a superblock, a single access.
DEVIATIONS = ("swapped_id", "mid_bin", "single_access")


def block_consumed_ahead(trace: np.ndarray) -> int:
    """A block whose unplanned access in [96, 144) the plan's table cannot absorb.

    Accessed before index 96 (so its next planned occurrence is already
    handed out), absent from [96, 144) (so the extra access is a remap of
    its own, which takes the occurrence after that) and planned in two
    further superblocks: a client still reading the table at the first of
    them hands the block the second one's leaf a second time, where the
    lookup moves on to a third or to a uniform draw.
    """
    for block_id in np.unique(trace[:96]).tolist():
        later = np.flatnonzero(trace[144:380] == block_id) // 8
        if block_id not in trace[96:144] and np.unique(later).size >= 2:
            return block_id
    raise AssertionError("no such block in the trace")


@pytest.mark.parametrize("deviation", DEVIATIONS)
@pytest.mark.parametrize("placement", [False, True])
@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("label", LOOKAHEAD_LABELS)
def test_remaps_by_position_match_the_object_client_across_a_deviation(
    label, recursive, placement, deviation
):
    """Conforming calls, one deviating call, conforming calls again.

    The array client hands a conforming bin the plan's precomputed remaps
    and drops to per-id lookups at the deviation, for good; the object
    client looks every id up.  They must agree on everything, the plan's
    consumption state included, after every call.
    """
    trace = mixed_trace()[:400]
    extra = block_consumed_ahead(trace)
    rows = [("written", i) for i in range(len(trace))]
    start = 0 if placement else 13

    def cut(verb, lo, hi):
        return verb, trace[max(lo, start) : hi]

    calls = [cut("access_many", 0, 48), cut("write_many", 48, 96)]
    if deviation == "swapped_id":
        ids = trace[96:144].copy()
        ids[5] = extra
        calls.append(("access_many", ids))
    elif deviation == "mid_bin":
        calls += [cut("access_many", 96, 115), cut("write_many", 115, 144)]
    else:
        calls += [("access", extra), cut("access_many", 97, 144)]
    deviated = len(calls)
    calls += [
        cut("access_many", 144, 200),
        cut("write_many", 200, 256),
        cut("access_many", 256, 380),
    ]

    twins = []
    for fast in (False, True):
        config = build_oram_config(
            num_blocks=NUM_BLOCKS,
            block_size_bytes=4 * DIM,
            seed=17,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=64,
        )
        engine = build_engine(label, config, fast=fast)
        engine.load_payloads({b: ("initial", b) for b in range(NUM_BLOCKS)})
        if not placement:
            # Plan-free bins first: the plan then opens off a boundary,
            # with a short bin.
            engine.access_many(trace[:start])
        plan = engine.preprocess(trace[start:], start_index=engine.trace_cursor)
        if placement:
            engine.apply_initial_placement(plan)
        twins.append(engine)

    def state(engine) -> dict:
        return dict(
            engine_state(engine),
            trace_cursor=engine.trace_cursor,
            consumed=dict(engine.plan.consumed_up_to),
        )

    reference, fast = twins
    by_position = []
    for verb, ids in calls:
        results = []
        for engine in twins:
            if verb == "access":
                results.append([engine.access(ids)])
            elif verb == "write_many":
                results.append(engine.write_many(ids, rows[: len(ids)]))
            else:
                results.append(list(engine.access_many(ids)))
        assert results[0] == results[1]
        assert_twins_agree(state(reference), state(fast))
        by_position.append(fast.bins_by_position)
    # Whole bins before the deviation took the table; none did after it.
    assert by_position[0] > 0
    assert by_position[deviated - 1 :] == [by_position[deviated - 1]] * (
        len(calls) - deviated + 1
    )
    assert reference.bins_by_position == 0
    assert fast.bins_by_lookup > 0
    assert (reference.statistics.posmap_path_reads > 0) == recursive


# ----------------------------------------------------------------------
# One way to run a bin
# ----------------------------------------------------------------------
#: Everything a bin could run on besides the kernel: the single-access
#: entry points, which are one-id and empty bins themselves.
BYPASSES = ("access", "dummy_access")

#: The per-access driver of the reference engine (``tests/oracle/engine.py``):
#: the shipped engines have none of it.
HOOKS = (
    "_read_path_into_stash",
    "_fetch_path",
    "_write_back",
    "_commit_write_back",
    "_maybe_background_evict",
    "_serve",
    "_stash_lookup",
    "_update_leaf",
    "_choose_new_leaf",
    "_draw_leaf",
)


@pytest.mark.parametrize("store", ["dict", "matrix"])
@pytest.mark.parametrize("recursive", [False, True])
def test_every_fast_lookahead_entry_point_runs_the_bin_kernel(
    recursive, store, monkeypatch
):
    # A tiny eviction trigger, so background eviction runs inside the
    # kernel too.
    engine = make_engine("Fat/S4", True, recursive, eviction_threshold=2, eviction_target=1)
    cls = type(engine)
    calls = []
    kernel = cls._run_bins

    def spy(self, block_ids, *args):
        calls.append(len(block_ids))
        return kernel(self, block_ids, *args)

    def bypassed(name):
        def fail(self, *args, **kwargs):
            raise AssertionError(f"a bin ran {name} instead of the kernel")

        return fail

    monkeypatch.setattr(cls, "_run_bins", spy)
    for name in BYPASSES:
        monkeypatch.setattr(cls, name, bypassed(name))
    assert [name for name in HOOKS if hasattr(cls, name)] == []

    rng = np.random.default_rng(3)
    if store == "matrix":
        engine.load_payloads(np.zeros((NUM_BLOCKS, DIM), dtype=np.float32))
        payload = lambda value: np.full(DIM, value, dtype=np.float32)  # noqa: E731
    else:
        engine.load_payloads({b: 0.0 for b in range(NUM_BLOCKS)})
        payload = float
    same = lambda got, value: np.array_equal(got, payload(value))  # noqa: E731
    trace = rng.integers(0, NUM_BLOCKS, size=90)
    engine.run_trace(trace)
    assert calls == [90]
    ids = [5, 9, 5, 77, 9, 5]
    engine.write_many(ids, [payload(i) for i in range(6)])
    assert calls == [90, 6]
    served = engine.access_many([9, 5, 77, 3])
    assert calls == [90, 6, 4]
    # Repeated ids kept their last payload.
    assert [same(got, want) for got, want in zip(served, (4, 5, 3, 0))] == [True] * 4
    assert engine.statistics.logical_accesses == 100
    assert engine.statistics.background_evictions > 0
    assert engine.total_real_blocks() == NUM_BLOCKS


@pytest.mark.parametrize("store", ["dict", "matrix"])
@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("label", ["PathORAM", "Normal/S4"])
def test_every_single_access_runs_the_bin_kernel(label, recursive, store, monkeypatch):
    # access / read / write are a one-id bin at the cursor and dummy_access
    # an empty one; none of them goes through the other, or through a
    # per-access driver the shipped engines no longer have.  One-slot
    # buckets and a tiny trigger, so background eviction runs inside the
    # kernel too.
    config = build_oram_config(
        num_blocks=NUM_BLOCKS,
        block_size_bytes=4 * DIM,
        bucket_size=1,
        seed=17,
        recursive_posmap=recursive,
        posmap_positions_per_block=4,
        posmap_cutoff_bytes=64,
    ).with_overrides(eviction_threshold=1, eviction_target=0)
    engine = build_engine(label, config, fast=True)
    cls = type(engine)
    assert [name for name in HOOKS if hasattr(cls, name)] == []
    bins_run = []
    kernel = cls._run_bins

    def spy(self, block_ids, *args):
        # One request: the cursor it starts at, its ids and the rest of
        # the call (the bin size, no plan remaps).
        bins_run.append([(self._trace_cursor, block_ids.tolist(), *args)])
        return kernel(self, block_ids, *args)

    def bypassed(name):
        def fail(self, *args, **kwargs):
            raise AssertionError(f"a single access ran {name}")

        return fail

    monkeypatch.setattr(cls, "_run_bins", spy)
    if store == "matrix":
        engine.load_payloads(np.zeros((NUM_BLOCKS, DIM), dtype=np.float32))
        payload = np.full(DIM, 7.0, dtype=np.float32)
    else:
        engine.load_payloads({b: 0.0 for b in range(NUM_BLOCKS)})
        payload = 7.0
    if label != "PathORAM":
        engine.preprocess(np.array([5, 9, 5, 77, 9, 5]))
    calls = [
        ("access", (5,), "dummy_access"),
        ("read", (9,), "dummy_access"),
        ("write", (5, payload), "dummy_access"),
        ("dummy_access", (), "access"),
        ("read", (5,), "dummy_access"),
    ]
    results = []
    for name, args, bypass in calls:
        with monkeypatch.context() as patch:
            patch.setattr(cls, bypass, bypassed(bypass))
            results.append(getattr(engine, name)(*args))
    assert bins_run == [
        [(0, [5])],
        [(1, [9])],
        [(2, [5])],
        [(3, [])],
        [(3, [5])],
    ]
    assert np.array_equal(results[-1], payload)
    # More single accesses, until the stash has crossed the trigger.
    ids = np.random.default_rng(3).integers(0, NUM_BLOCKS, size=60).tolist()
    with monkeypatch.context() as patch:
        patch.setattr(cls, "dummy_access", bypassed("dummy_access"))
        for block_id in ids:
            engine.access(block_id)
    assert bins_run[len(calls) :] == [
        [(4 + index, [block_id])] for index, block_id in enumerate(ids)
    ]
    stats = engine.statistics
    assert stats.logical_accesses == 4 + len(ids)
    assert stats.background_evictions > 0
    assert stats.dummy_reads > stats.background_evictions
    assert engine.total_real_blocks() == NUM_BLOCKS


# ----------------------------------------------------------------------
# One clock: the closed form of the counters, on every engine
# ----------------------------------------------------------------------
#: One label per family and tree shape.
CLOCK_LABELS = ("PathORAM", "Normal/S4", "Fat/S8")


@pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
@pytest.mark.parametrize("label", CLOCK_LABELS)
def test_the_clock_is_the_closed_form_of_the_counters(label, recursive):
    """Through every entry point and both failure paths, on both twins.

    The engine prices its counters, recursion buckets included;
    ``closed_form_clock`` derives those from bytes instead.  They meet at
    1e-12 only if every event was counted once, at its own geometry —
    main-tree paths and each recursion level's paths — by the reference
    engine one event at a time and by the array engine once per driver
    call, and twins meet with ``==``.
    """
    trace = mixed_trace()
    rows = [("written", i) for i in range(len(trace))]
    lookahead = label in LOOKAHEAD_LABELS

    def checked(engine) -> dict:
        assert engine.simulated_time_s == pytest.approx(
            closed_form_clock(engine), rel=1e-12
        )
        return engine_state(engine)

    def serve(engine) -> None:
        for block_id in trace[:60].tolist():
            engine.access(block_id)
        engine.dummy_access()
        if lookahead:
            engine.run_trace(trace[60:260])
        else:
            ops = [AccessOp.WRITE if i % 3 == 0 else AccessOp.READ for i in range(200)]
            engine.run_trace(trace[60:260], ops, rows[:200])
        engine.write_many(trace[260:330], rows[:70])
        engine.access_many(trace[330:420])

    twins = []
    for fast in (False, True):
        config = build_oram_config(
            num_blocks=NUM_BLOCKS,
            block_size_bytes=4 * DIM,
            fat_tree=True,
            seed=17,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=64,
        )
        twins.append(build_engine(label, config, fast=fast))
    for engine in twins:
        serve(engine)
    assert_twins_agree(*map(checked, twins))
    assert twins[0].statistics.dummy_reads > 0
    assert (twins[0].statistics.posmap_path_reads > 0) == recursive

    if recursive:
        # A raise from inside a walk: the top map sends the walk for one
        # last-level block down the other half of its tree, where it reads
        # (and charges) a path, misses the block and raises inside the
        # kernel's walk.
        for engine in twins:
            posmap = engine.position_map
            level = posmap._levels[-1]
            below_root = level.tree.slot_array[level.tree.bucket_capacities[0] :]
            victim = int(below_root[below_root >= 0][0])
            posmap._top[victim] ^= level.num_leaves >> 1
            span = posmap.positions_per_block ** len(posmap._levels)
            target = next(
                b for b in range(victim * span, (victim + 1) * span)
                if b not in engine.stash
            )
            with pytest.raises(IntegrityError):
                engine.access_many([target])
            # The walk failed before it moved anything but the top entry.
            posmap._top[victim] = level.labels[victim]
        assert_twins_agree(*map(checked, twins))

    # A stash overflow mid-trace.  Both backends charge the path read and
    # stash the whole path before they raise, so the twins still agree.
    for engine in twins:
        engine.stash._capacity = len(engine.stash) + 4
        served = engine.statistics.logical_accesses
        with pytest.raises(StashOverflowError):
            engine.access_many(trace[420:])
        assert served < engine.statistics.logical_accesses
    assert_twins_agree(*map(checked, twins))
