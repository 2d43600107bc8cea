"""The C request kernel (``serve``) against the reference engines.

Every access of a shipped engine is one ``serve`` call: a request's bins,
the commit bin of a held step, or a dummy read.  The Hypothesis property
below drives a shipped engine and its per-object reference twin through
the same random sequence of requests, through every entry point, and after
every request — and every raise — holds them to the same engine state, the
same raise and the same bus transcript.  The rest of the file is the
request's own contract: non-integer ids are rejected before anything is
counted, the kernel refuses a second call from inside one of its callbacks,
and its operands are checked before it writes anything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.attacks.observer import MemoryBusObserver
from repro.core.superblock import LookaheadPlan
from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.experiments.configs import build_oram_config
from repro.oram.base import AccessOp
from repro.oram.write_back import serve

from oracle import build_engine, engine_state
from test_trace_contract import assert_twins_agree

NUM_BLOCKS = 96

#: What the two sides may raise; anything else fails the property.
EXPECTED = (BlockNotFoundError, ConfigurationError, StashOverflowError)


def ids_of(draw, hot, max_size=40):
    """A request: hot ids repeat within it and across requests (stash hits)."""
    block = st.one_of(st.sampled_from(hot), st.integers(0, NUM_BLOCKS - 1))
    return draw(st.lists(block, min_size=1, max_size=max_size))


@st.composite
def scenarios(draw):
    """One engine configuration and a sequence of requests against it."""
    family = draw(st.sampled_from(["PathORAM", "Normal", "Fat"]))
    size = draw(st.integers(1, 16))
    label = "PathORAM" if family == "PathORAM" else f"{family}/S{size}"
    config = dict(
        recursive=draw(st.booleans()),
        bucket_size=draw(st.sampled_from([1, 2, 4])),
        capacity=draw(st.one_of(st.none(), st.integers(3, 40))),
        trigger=draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2**16)),
    )
    hot = draw(st.lists(st.integers(0, NUM_BLOCKS - 1), min_size=1, max_size=4))
    kinds = ["access_many", "write_many", "run_trace", "hold", "access", "dummy", "bad_id"]
    if family != "PathORAM":
        kinds += ["plan", "plan_prefix", "bad_plan"]
    requests = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10)):
        if kind == "access":
            requests.append((kind, draw(st.sampled_from(hot))))
        elif kind == "dummy":
            requests.append((kind, None))
        else:
            requests.append((kind, ids_of(draw, hot)))
    return label, config, requests


def make_twins(label: str, config: dict):
    """The reference engine and the shipped one, each with its own observer."""
    oram = build_oram_config(
        num_blocks=NUM_BLOCKS,
        bucket_size=config["bucket_size"],
        seed=config["seed"],
        recursive_posmap=config["recursive"],
        posmap_positions_per_block=4,
        posmap_cutoff_bytes=64,
    ).with_overrides(
        stash_capacity=config["capacity"],
        eviction_threshold=config["trigger"],
        eviction_target=config["trigger"] // 2,
    )
    twins = []
    for fast in (False, True):
        engine = build_engine(label, oram, observer=MemoryBusObserver(), fast=fast)
        engine.load_payloads({b: ("initial", b) for b in range(NUM_BLOCKS)})
        twins.append(engine)
    return twins


def run(engine, kind: str, ids, step: int):
    """One request of ``kind``; returns what it served."""
    if kind == "access_many":
        return list(engine.access_many(ids))
    if kind == "write_many":
        return engine.write_many(ids, [("written", step, i) for i in range(len(ids))])
    if kind == "run_trace":
        if hasattr(engine, "preprocess"):
            return list(engine.run_trace(ids))
        ops = [AccessOp.WRITE if i % 3 == 0 else AccessOp.READ for i in range(len(ids))]
        return list(engine.run_trace(ids, ops, [("traced", step, i) for i in range(len(ids))]))
    if kind == "hold":
        rows = list(engine.hold_many(ids))
        engine.commit(ids, [("committed", step, i) for i in range(len(ids))])
        return rows
    if kind == "access":
        return engine.access(ids)
    if kind == "dummy":
        return engine.dummy_access()
    if kind == "bad_id":
        # The out-of-range id sits mid-request: the bins before it are served.
        at = len(ids) // 2
        return list(engine.access_many(ids[:at] + [NUM_BLOCKS + 3] + ids[at:]))
    cursor = engine.trace_cursor
    if kind == "plan":
        # Planned, then served by position in two halves that may split a
        # bin: the second half opens mid-bin and drops the plan to lookups.
        engine.preprocess(ids, start_index=cursor)
        half = len(ids) // 2
        return list(engine.access_many(ids[:half])) + list(engine.access_many(ids[half:]))
    if kind == "plan_prefix":
        # Planned, then a drifted request: other ids, looked up one by one.
        engine.preprocess(ids, start_index=cursor)
        return list(engine.access_many(ids[::-1]))
    # bad_plan: one bin leaf past the tree's last leaf.
    size = engine.superblock_size
    count = -(-(cursor % size + len(ids)) // size)
    num_leaves = engine.config.num_leaves
    leaves = [(7 * index) % num_leaves for index in range(count)]
    leaves[-1] = num_leaves
    engine.set_plan(
        LookaheadPlan(ids, leaves, size, num_leaves=2 * num_leaves, start_index=cursor)
    )
    return list(engine.access_many(ids))


def state(engine) -> dict:
    """What the twins must agree on after every request."""
    observer = engine.observer
    return dict(
        engine_state(engine),
        transcript=(list(observer.observed_paths), list(observer.observed_dummy_flags)),
        trace_cursor=getattr(engine, "trace_cursor", None),
        hold_open=engine.hold_open,
    )


class TestRequestDifferential:
    """Random request sequences leave the twins field-equal, raise or not."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios())
    def test_every_request_leaves_the_twins_equal(self, scenario):
        label, config, requests = scenario
        twins = make_twins(label, config)
        for step, (kind, ids) in enumerate(requests):
            outcomes = []
            for engine in twins:
                try:
                    outcomes.append(("served", run(engine, kind, ids, step)))
                except EXPECTED as error:
                    outcomes.append(("raised", type(error)))
                    event(f"{kind} raised {type(error).__name__}")
                    # A raise never leaves a hold open.
                    assert not engine.hold_open
                assert engine.total_real_blocks() == NUM_BLOCKS
            assert outcomes[1] == outcomes[0], (kind, ids)
            assert_twins_agree(*(state(engine) for engine in twins))
            if kind == "bad_id":
                assert outcomes[0][0] == "raised"
            if kind == "bad_plan" and outcomes[0][0] == "raised":
                assert all(engine.plan is None for engine in twins)


# ----------------------------------------------------------------------
# Non-integer ids
# ----------------------------------------------------------------------
#: Ids an int64 cast would silently truncate or accept.
NON_INTEGER = [
    [1.5, 2.0],
    np.array([1.5, 2.0]),
    [2.0],
    [3, None],
]

ENTRY_POINTS = ["access_many", "run_trace", "write_many", "hold_many"]


def entry(engine, name: str, ids):
    if name == "write_many":
        return engine.write_many(ids, [0.0] * len(ids))
    return getattr(engine, name)(ids)


@pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
@pytest.mark.parametrize("label", ["PathORAM", "Fat/S4"])
class TestNonIntegerIds:
    """A non-integer id raises a typed error before anything is counted."""

    @staticmethod
    def engine(label, recursive):
        config = build_oram_config(
            num_blocks=64, seed=3, recursive_posmap=recursive,
            posmap_positions_per_block=4, posmap_cutoff_bytes=64,
        )
        engine = build_engine(label, config, fast=True)
        engine.load_payloads({b: float(b) for b in range(64)})
        engine.access_many([7, 8])
        return engine

    @staticmethod
    def untouched(engine) -> dict:
        return dict(
            engine_state(engine),
            stream=(engine.rng.bit_generator.state, engine._leaf_buf_pos),
            trace_cursor=engine._trace_cursor,
            hold_open=engine.hold_open,
        )

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("ids", NON_INTEGER, ids=lambda ids: repr(list(ids)))
    def test_a_request_is_refused_whole(self, label, recursive, name, ids):
        engine = self.engine(label, recursive)
        before = self.untouched(engine)
        with pytest.raises(ConfigurationError, match="integers"):
            entry(engine, name, ids)
        assert self.untouched(engine) == before
        # The engine serves the next request.
        assert entry(engine, "access_many", [1, 2]) == [1.0, 2.0]

    @pytest.mark.parametrize("block_id", [1.5, 2.0, np.float64(2.0), None])
    def test_a_single_access_is_refused(self, label, recursive, block_id):
        engine = self.engine(label, recursive)
        before = self.untouched(engine)
        with pytest.raises(ConfigurationError, match="integers"):
            engine.access(block_id)
        assert self.untouched(engine) == before
        assert engine.access(np.int64(2)) == 2.0


# ----------------------------------------------------------------------
# The kernel's own guards
# ----------------------------------------------------------------------
class TestKernelGuards:
    def test_a_callback_cannot_start_a_second_request(self):
        config = build_oram_config(num_blocks=64, seed=3)
        engine = build_engine("PathORAM", config, fast=True)

        class Reentrant:
            def observe_path(self, leaf, dummy=False):
                engine.dummy_access()

        engine.observer = Reentrant()
        before = engine.statistics
        with pytest.raises(RuntimeError, match="its own callbacks"):
            engine.access(5)
        # The read landed and was counted; the kernel stopped at the
        # callback, the engine holds every block and serves on.
        assert engine.statistics.path_reads == before.path_reads + 1
        assert engine.total_real_blocks() == 64
        engine.observer = None
        engine.access_many([5, 6])
        assert engine.total_real_blocks() == 64

    @staticmethod
    def operands(engine, **changes):
        """``serve``'s arguments for a one-id request on ``engine``."""
        tree = engine.tree
        tags, update = engine.position_map.leaf_access()
        policy = engine.eviction
        args = dict(
            stash=engine.stash.entries, caps=tree.bucket_capacities,
            level_base=tree.level_base, node_base=engine._node_base,
            slots=tree.slot_view, occ=tree.occupancy_view, depth=engine._depth,
            tags=tags, update=update, ids=np.array([5], dtype=np.int64), size=1,
            remaps=None, by_position=0, lookup=None, integers=engine.rng.integers,
            leaf_buf=engine._leaf_buf,
            limits=(64, engine.config.num_leaves, -1, int(policy.enabled),
                    policy.trigger_threshold, policy.drain_target,
                    policy.max_dummy_reads_per_episode),
            held_paths=engine._held_paths, holding=False, observer=None, history=None,
            state=np.array([0, engine._leaf_buf_pos, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64),
        )
        args.update(changes)
        return list(args.values())

    @pytest.mark.parametrize(
        "changes, error",
        [
            (dict(ids=np.array([5], dtype=np.int32)), ValueError),
            (dict(ids=[5]), TypeError),
            (dict(size=0), ValueError),
            (dict(by_position=1), ValueError),
            (dict(state=np.zeros(8, dtype=np.int64)), ValueError),
            (dict(state=np.zeros(9, dtype=np.int32)), ValueError),
            (dict(leaf_buf=np.empty(0, dtype=np.int64)), ValueError),
            (dict(limits=(64, 10**9, -1, 1, 5, 2, 10)), ValueError),
            (dict(limits=(10**6, 2, -1, 1, 5, 2, 10)), ValueError),
            (dict(update=np.zeros(64, dtype=np.int32)), ValueError),
            (dict(lookup=3), TypeError),
            (dict(held_paths=()), TypeError),
            (dict(history=()), TypeError),
        ],
        ids=lambda value: "" if isinstance(value, type) else "-".join(value),
    )
    def test_operands_are_checked_before_any_write(self, changes, error):
        config = build_oram_config(num_blocks=64, seed=3)
        engine = build_engine("PathORAM", config, fast=True)
        engine.access_many([1, 2, 3])
        before = engine_state(engine)
        slots, occ = engine.tree.slot_array.copy(), engine.tree.bucket_occupancies.copy()
        with pytest.raises(error):
            serve(*self.operands(engine, **changes))
        assert engine_state(engine) == before
        assert np.array_equal(engine.tree.slot_array, slots)
        assert np.array_equal(engine.tree.bucket_occupancies, occ)
        # The same call with the engine's own operands serves the id.
        state = self.operands(engine)[-1]
        serve(*self.operands(engine)[:-1], state)
        assert state[3] == 1  # one logical access
