"""``write_back.group_sum``: a training step's gradients summed per distinct row.

The trainer groups a step's ids once (``apply_gradients``) and hands the C
entry point the gradients, the stable argsort ``order`` and the run
``starts``.  Each run's sum must be ``np.add.reduceat(g[order], starts,
axis=0)``'s bit for bit, compared as ``uint32`` views: the run's first row
plus numpy's pairwise sum of the rest (one running sum under 8 rows, eight
accumulators up to 128, halves above that).  Every operand it could read or
write out of bounds with is rejected before ``out`` is written, and a call
allocates nothing.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oram.write_back import group_sum

#: Values whose sums a careless order would change: signed zeros,
#: subnormals, infinities and the float32 extremes.
SPECIALS = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, np.inf, -np.inf, 3.4e38, -3.4e38, 1.0, -1.0],
    dtype=np.float32,
)

#: Run lengths around every branch of numpy's pairwise sum.
RUN_LENGTHS = [1, 2, 7, 8, 9, 16, 17, 128, 129, 130, 300]


def grouping(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order`` and ``starts`` as the trainer computes them."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    return order, np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])


def summed(gradients, order, starts) -> np.ndarray:
    out = np.full((starts.size, gradients.shape[1]), np.nan, dtype=np.float32)
    group_sum(gradients, order, starts, out)
    return out


def assert_reduceat(gradients, ids) -> None:
    order, starts = grouping(ids)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.add.reduceat(gradients[order], starts, axis=0)
    assert summed(gradients, order, starts).view(np.uint32).tolist() == (
        expected.view(np.uint32).tolist()
    )


def gradients_with_specials(rng, rows: int, dim: int, share: float = 0.05) -> np.ndarray:
    """Gaussian gradients over six decades, about ``share`` of them special values."""
    gradients = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4, (rows, dim))
    special = rng.random((rows, dim)) < share
    gradients[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return gradients.astype(np.float32)


@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_a_run_of_each_length_sums_as_reduceat(length):
    # One run of `length` rows, its rows scattered among runs of other ids,
    # 96 columns (a full and a partial block of the kernel's columns).
    rng = np.random.default_rng(length)
    ids = np.concatenate([np.full(length, 5), rng.integers(0, 5, size=length // 2 + 3)])
    rng.shuffle(ids)
    assert_reduceat(gradients_with_specials(rng, ids.size, 96, share=0.0), ids)


@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_a_run_of_signed_zeros_and_subnormals_sums_as_reduceat(length):
    rng = np.random.default_rng(1000 + length)
    gradients = rng.choice(SPECIALS[:6], size=(length, 16)).astype(np.float32)
    gradients[:, 0] = -0.0
    assert_reduceat(gradients, np.zeros(length, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 400),
    dim=st.integers(1, 96),
    distinct=st.integers(1, 400),
    share=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_sum_is_reduceat(rows, dim, distinct, share, seed):
    rng = np.random.default_rng(seed)
    # Zipf-like ids: a few long runs, many short ones.
    ids = np.minimum(rng.zipf(1.3, size=rows) - 1, distinct - 1)
    assert_reduceat(gradients_with_specials(rng, rows, dim, share), ids)


def test_an_empty_step_sums_nothing():
    out = np.empty((0, 4), dtype=np.float32)
    assert group_sum(np.empty((0, 4), np.float32), np.empty(0, np.int64),
                     np.empty(0, np.int64), out) is None


def operands():
    gradients = np.arange(24, dtype=np.float32).reshape(6, 4)
    ids = np.array([3, 1, 3, 2, 1, 3])
    order, starts = grouping(ids)
    return gradients, order, starts, np.full((3, 4), 7.0, dtype=np.float32)


def _replace(index, value):
    def case():
        args = list(operands())
        args[index] = value(args[index]) if callable(value) else value
        return args
    return case


def _out_into(index):
    """``out`` sharing 8 bytes of one buffer with operand ``index``."""
    def case():
        args = list(operands())
        buffer = np.zeros(160, dtype=np.uint8)
        source = args[index]
        args[index] = buffer[40 : 40 + source.nbytes].view(source.dtype).reshape(source.shape)
        args[index][...] = source
        args[3] = buffer[:48].view(np.float32).reshape(3, 4)
        return args
    return case


def _no_runs():
    args = list(operands())
    args[2], args[3] = np.empty(0, np.int64), np.empty((0, 4), np.float32)
    return args


BAD = {
    "gradients float64": (_replace(0, lambda g: g.astype(np.float64)), ValueError),
    "gradients one-dimensional": (_replace(0, lambda g: g.reshape(-1)), ValueError),
    "gradients not contiguous": (_replace(0, lambda g: np.asfortranarray(g)), TypeError),
    "gradients no buffer": (_replace(0, [[0.0] * 4] * 6), TypeError),
    "order int32": (_replace(1, lambda o: o.astype(np.int32)), ValueError),
    "order too short": (_replace(1, lambda o: o[:-1]), ValueError),
    "order entry past the rows": (_replace(1, lambda o: np.r_[o[:-1], 6]), ValueError),
    "order entry negative": (_replace(1, lambda o: np.r_[-1, o[1:]]), ValueError),
    "order two-dimensional": (_replace(1, lambda o: o.reshape(2, 3)), ValueError),
    "starts not at 0": (_replace(2, lambda s: s + 1), ValueError),
    "starts not increasing": (_replace(2, lambda s: s[[0, 2, 1]]), ValueError),
    "starts repeated": (_replace(2, lambda s: s[[0, 1, 1]]), ValueError),
    "starts past the rows": (_replace(2, lambda s: np.r_[s[:-1], 6]), ValueError),
    "starts empty": (_no_runs, ValueError),
    "out too few rows": (_replace(3, lambda o: o[:2]), ValueError),
    "out too few columns": (_replace(3, lambda o: np.ascontiguousarray(o[:, :3])), ValueError),
    "out float64": (_replace(3, lambda o: o.astype(np.float64)), ValueError),
    "out read-only": (
        _replace(3, lambda o: np.frombuffer(o.tobytes(), np.float32).reshape(3, 4)), TypeError
    ),
    "out over the gradients": (_out_into(0), ValueError),
    "out over the order": (_out_into(1), ValueError),
    "out over the starts": (_out_into(2), ValueError),
}


@pytest.mark.parametrize("name", list(BAD))
def test_a_bad_operand_raises_before_any_write(name):
    make, error = BAD[name]
    args = make()
    out = args[3]
    before = out.copy() if isinstance(out, np.ndarray) else None
    others = [np.array(arg, copy=True) for arg in args[:3]]
    with pytest.raises(error):
        group_sum(*args)
    if before is not None:
        assert out.view(np.uint32).tolist() == before.view(np.uint32).tolist()
    for arg, kept in zip(args[:3], others):
        assert np.array_equal(np.asarray(arg), kept)


def test_a_call_takes_four_operands():
    with pytest.raises(TypeError, match="4 arguments"):
        group_sum(*operands()[:3])


def test_a_call_allocates_nothing():
    """A 512-row step of 64 columns and every run length: 0 traced bytes.

    The sums live in the caller's ``out`` and the accumulators on the
    stack.  The operands are memoryviews: a numpy array's buffer export
    allocates its format string, which is numpy's, not the kernel's.
    """
    rng = np.random.default_rng(2)
    ids = np.minimum(rng.zipf(1.1, size=512) - 1, 200)
    ids[:300] = 0
    gradients = rng.standard_normal((512, 64)).astype(np.float32)
    order, starts = grouping(ids)
    out = np.empty((starts.size, 64), dtype=np.float32)
    args = tuple(map(memoryview, (gradients, order, starts, out)))
    group_sum(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        group_sum(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak == 0
    assert np.array_equal(out, np.add.reduceat(gradients[order], starts, axis=0))
