"""The stash every tree works on: ``repro.oram.write_back.Stash``.

A C table from block id to leaf that keeps a dict's order rules, which the
write-back's tie-breaks follow: an assignment to a present id updates its
leaf in place, a deleted id assigned again moves to the end, and iteration
and ``items()`` follow insertion order.  A Hypothesis state machine holds it
to a plain dict through every mapping operation, bulk extends and deletes
included, at sizes from 0 to 5,000, so its index grows and its tombstones
are compacted out many times over.  Ids and leaves are checked when they
are inserted, and a rejected insertion, one id or a whole extend, changes
nothing: the kernels trust what the table holds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.oram.write_back import Stash

#: The largest size the state machine grows the table to.
MOST = 5000
#: An id no slot can hold, and the first one past every int32.
PAST_IDS = 1 << 31


def pairs(ids, leaves) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(ids, dtype=np.int64), np.asarray(leaves, dtype=np.int64)


class StashAgainstADict(RuleBasedStateMachine):
    """Every rule on a :class:`Stash` and on a dict; after each, the same pairs."""

    def __init__(self):
        super().__init__()
        self.stash = Stash()
        self.model: dict[int, int] = {}

    def present(self, data) -> int:
        return list(self.model)[data.draw(st.integers(0, len(self.model) - 1))]

    @rule(block=st.integers(0, PAST_IDS - 1), leaf=st.integers(0, 2**63 - 1))
    def insert(self, block, leaf):
        self.stash[block] = leaf
        self.model[block] = leaf

    @precondition(lambda self: self.model)
    @rule(data=st.data(), leaf=st.integers(0, 1 << 20))
    def overwrite_in_place(self, data, leaf):
        block = self.present(data)
        self.stash[block] = leaf
        self.model[block] = leaf

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        block = self.present(data)
        del self.stash[block]
        del self.model[block]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), leaf=st.integers(0, 1 << 20))
    def delete_then_reinsert(self, data, leaf):
        block = self.present(data)
        del self.stash[block]
        self.stash[block] = leaf
        del self.model[block]
        self.model[block] = leaf

    @rule(data=st.data())
    def pop_with_a_default(self, data):
        if self.model and data.draw(st.booleans()):
            block = self.present(data)
        else:
            block = data.draw(st.integers(-2, PAST_IDS + 2))
        assert self.stash.pop(block, "absent") == self.model.pop(block, "absent")

    @rule(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 2500) | st.just(MOST),
        high=st.sampled_from([64, 1 << 14, PAST_IDS]),
    )
    def extend(self, seed, count, high):
        """New ids, repeats within the batch and ids already present; a
        ``count`` of MOST fills the table up."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, high, size=count)
        if self.model:
            present = np.fromiter(self.model, np.int64, len(self.model))
            ids = np.where(rng.random(count) < 0.2, rng.choice(present, size=count), ids)
        # Only as many new ids as keep the table at MOST at most.
        room = MOST - len(self.model)
        new = ~np.isin(ids, np.fromiter(self.model, np.int64, len(self.model)))
        ids = ids[~new | (np.cumsum(new) <= room)]
        leaves = rng.integers(0, 1 << 40, size=ids.size)
        self.stash.extend(*pairs(ids, leaves))
        for block, leaf in zip(ids.tolist(), leaves.tolist()):
            self.model[block] = leaf

    @precondition(lambda self: self.model)
    @rule(share=st.integers(0, 100), salt=st.integers(0, 99))
    def delete_a_share(self, share, salt):
        """About ``share`` % of the residents, scattered: enough tombstones
        to outnumber what lives, and to be compacted out."""
        doomed = [b for i, b in enumerate(self.model) if (i * 37 + salt) % 100 < share]
        for block in doomed:
            del self.stash[block]
            del self.model[block]

    @invariant()
    def same_pairs_in_the_same_order(self):
        assert self.stash.items() == list(self.model.items())
        assert len(self.stash) == len(self.model)
        assert list(self.stash) == list(self.model)
        for block in list(self.model)[:: max(1, len(self.model) // 16)]:
            assert block in self.stash
            assert self.stash[block] == self.model[block]
        for block in (-1, PAST_IDS, max(self.model, default=0) + 1):
            assert (block in self.stash) == (block in self.model)


StashAgainstADict.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
test_the_stash_is_a_dict_of_ints = StashAgainstADict.TestCase


def test_order_survives_compaction_at_5000():
    """5,000 entries, 3,000 scattered ones deleted (tombstones outnumber the
    living), re-inserted, then churned: a dict's order every step."""
    rng = np.random.default_rng(5)
    ids = rng.choice(PAST_IDS, size=MOST, replace=False)
    leaves = rng.integers(0, 1 << 30, size=MOST)
    stash, model = Stash(), dict(zip(ids.tolist(), leaves.tolist()))
    stash.extend(*pairs(ids, leaves))
    doomed = rng.choice(ids, size=3000, replace=False).tolist()
    for block in doomed:
        assert stash.pop(block) == model.pop(block)
    assert stash.items() == list(model.items())
    for block in doomed[::2]:
        stash[block] = model[block] = block % 97
    assert stash.items() == list(model.items())
    for block in list(model)[:1000]:
        del stash[block], model[block]
        stash[block] = model[block] = 1
    assert stash.items() == list(model.items())


def test_the_table_is_sized_by_its_residents():
    """A churn at a constant 100 residents: the table settles at a few dozen
    bytes a resident, whatever the ids, and then allocates nothing more."""
    ids, leaves = pairs(np.arange(100) * 10_000_019, np.zeros(100))

    def churn(steps):
        for step in steps:
            del stash[next(iter(stash))]
            stash[step] = step

    tracemalloc.start()
    try:
        stash = Stash()
        stash.extend(ids, leaves)
        churn(range(20_000))
        settled = tracemalloc.get_traced_memory()[0]
        tracemalloc.clear_traces()
        churn(range(20_000, 40_000))
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown == 0
    assert len(stash) == 100 and settled < 100 * 64


def test_a_mapping_of_its_own_is_not_a_dict():
    stash = Stash()
    stash[3] = 9
    assert stash.pop(3) == 9
    with pytest.raises(KeyError):
        stash.pop(3)
    with pytest.raises(KeyError):
        stash[3]
    with pytest.raises(KeyError):
        del stash[3]
    # Keys no stash can hold are simply absent.
    for key in ("3", 3.0, None, -1, PAST_IDS, 1 << 70, True):
        assert key not in stash
        assert stash.pop(key, "absent") == "absent"
    # numpy ints go in, Python ints come out.
    stash[np.int64(4)] = np.int32(2)
    assert stash.items() == [(4, 2)] and type(stash[np.int64(4)]) is int
    with pytest.raises(TypeError):
        Stash({4: 2})
    with pytest.raises(TypeError):
        type("Sub", (Stash,), {})


# ----------------------------------------------------------------------
# Rejected insertions change nothing
# ----------------------------------------------------------------------
def filled() -> Stash:
    stash = Stash()
    stash.extend(*pairs([5, 9, 2], [1, 3, 7]))
    return stash


BEFORE = [(5, 1), (9, 3), (2, 7)]


@pytest.mark.parametrize(
    "block, leaf, error",
    [
        (-1, 5, ValueError),
        (PAST_IDS, 5, ValueError),
        (1 << 70, 5, ValueError),
        (6, -1, ValueError),
        (6, 1 << 63, ValueError),
        (6.0, 5, TypeError),
        ("6", 5, TypeError),
        (None, 5, TypeError),
        (True, 5, TypeError),
        (6, 5.0, TypeError),
        (6, "5", TypeError),
        (6, True, TypeError),
        (9, -1, ValueError),
        (9, 3.5, TypeError),
    ],
)
def test_a_rejected_assignment_changes_nothing(block, leaf, error):
    stash = filled()
    with pytest.raises(error):
        stash[block] = leaf
    assert stash.items() == BEFORE


@pytest.mark.parametrize(
    "ids, leaves, error",
    [
        (pairs([6, -1], [0, 0]), None, ValueError),
        (pairs([6, PAST_IDS], [0, 0]), None, ValueError),
        (pairs([6, 7], [0, -1]), None, ValueError),
        (pairs([6, 7], [0]), None, ValueError),
        ((np.array([6], dtype=np.int32), np.array([0], dtype=np.int64)), None, ValueError),
        ((np.array([6.0]), np.array([0], dtype=np.int64)), None, ValueError),
        (([6], [0]), None, TypeError),
    ],
    ids=["negative id", "id past int32", "negative leaf", "lengths differ", "int32 ids",
         "float ids", "lists"],
)
def test_a_rejected_extend_changes_nothing(ids, leaves, error):
    stash = filled()
    with pytest.raises(error):
        stash.extend(*ids)
    assert stash.items() == BEFORE


def test_an_extend_assigns_in_order():
    """A repeated id keeps its first position and its last leaf; a present
    one is updated in place."""
    stash = filled()
    stash.extend(*pairs([4, 9, 4, 8], [10, 11, 12, 13]))
    assert stash.items() == [(5, 1), (9, 11), (2, 7), (4, 12), (8, 13)]
