"""Fused trace-driver guarantees: bit-identity and zero-allocation.

Two contracts of the fused hot path (PR 8):

* ``run_trace`` is decision-for-decision identical to a per-call ``access``
  loop — counters (the drivers' bulk flush against per-event recording),
  timing, position map, stash contents and order, results — including
  under aggressive background eviction, write ops and numpy-array inputs;
* the steady-state fused loop performs no per-access numpy allocations:
  ``tracemalloc`` growth over a long trace is bounded by the results list
  plus the block-buffered RNG refills, and the row store's per-access get
  and set hold no more at their peak than the bare row view or row copy
  they are made of.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.oram.path_oram import PathORAM
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.row_store import OverlayRowStore

from oracle import ObjectPathORAM
from oracle import engine_state as _state


NUM_BLOCKS = 700


def _config(seed: int = 7) -> ORAMConfig:
    return ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=64, seed=seed)


def _trace(n: int = 1500, seed: int = 11) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, NUM_BLOCKS, size=n).tolist()


class TestRunTraceBitIdentity:
    """run_trace == the per-call access loop, shipped and reference."""

    def test_fused_matches_per_call_loop(self):
        trace = _trace()
        fused = PathORAM(_config())
        fused_results = fused.run_trace(trace)
        for loop in (PathORAM(_config()), ObjectPathORAM(_config())):
            loop_results = [loop.access(block_id) for block_id in trace]
            assert fused_results == loop_results
            assert _state(fused) == _state(loop)

    def test_fused_matches_reference_engine(self):
        trace = _trace()
        fused = PathORAM(_config())
        reference = ObjectPathORAM(_config())
        fused_results = fused.run_trace(trace)
        ref_results = [reference.access(block_id) for block_id in trace]
        assert fused_results == ref_results
        assert _state(fused) == _state(reference)

    def test_aggressive_background_eviction(self):
        config = _config().with_overrides(eviction_threshold=2, eviction_target=1)
        trace = _trace()
        fused = PathORAM(config)
        fused_results = fused.run_trace(trace)
        for cls in (PathORAM, ObjectPathORAM):
            loop = cls(config)
            assert fused_results == [loop.access(b) for b in trace]
            assert _state(fused) == _state(loop)
        assert fused.statistics.background_evictions > 0

    def test_write_ops_round_trip(self):
        trace = _trace(n=400)
        payloads = [f"payload-{i}" for i in range(len(trace))]
        fused = PathORAM(_config())
        fused_results = fused.run_trace(
            trace, ops=AccessOp.WRITE, payloads=payloads
        )
        for loop in (PathORAM(_config()), ObjectPathORAM(_config())):
            loop_results = [
                loop.access(b, AccessOp.WRITE, p) for b, p in zip(trace, payloads)
            ]
            assert fused_results == loop_results
            assert _state(fused) == _state(loop)
        # Written payloads are served back by subsequent reads.
        last = {b: p for b, p in zip(trace, payloads)}
        reads = fused.run_trace(list(last))
        assert reads == [last[b] for b in last]

    def test_ndarray_input(self):
        trace = np.asarray(_trace(n=300), dtype=np.int64)
        fused = PathORAM(_config())
        fused_results = fused.run_trace(trace)
        for loop in (PathORAM(_config()), ObjectPathORAM(_config())):
            assert fused_results == [loop.access(int(b)) for b in trace]
            assert _state(fused) == _state(loop)

    def test_empty_trace(self):
        engine = PathORAM(_config())
        before = _state(engine)
        assert engine.run_trace([]) == []
        assert _state(engine) == before

    def test_out_of_range_id_raises_and_flushes(self):
        from repro.exceptions import BlockNotFoundError

        engine = PathORAM(_config())
        trace = _trace(n=50)
        with pytest.raises(BlockNotFoundError):
            engine.run_trace(trace + [NUM_BLOCKS + 5])
        # The prefix before the bad id must have been executed and flushed.
        for mirror in (PathORAM(_config()), ObjectPathORAM(_config())):
            for block_id in trace:
                mirror.access(block_id)
            assert _state(engine) == _state(mirror)

    def test_access_many_sequential_routes_through_run_trace(self):
        trace = _trace(n=300)
        via_many = PathORAM(_config())
        via_trace = PathORAM(_config())
        assert via_many.access_many(trace) == via_trace.run_trace(trace)
        assert _state(via_many) == _state(via_trace)


def _peak(call) -> int:
    """The fewest bytes one ``call()`` held at once, over five calls after a warm one."""
    call()
    peaks = []
    for _ in range(5):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
    return min(peaks)


class TestZeroAllocationSteadyState:
    """tracemalloc regression: the fused loop's growth is bounded."""

    def test_array_path_oram_fused_loop(self):
        engine = PathORAM(_config())
        warmup = _trace(n=600, seed=3)
        engine.run_trace(warmup)

        steady = _trace(n=2000, seed=4)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        results = engine.run_trace(steady)
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(results) == len(steady)

        growth = after - before
        # Steady-state allocations are the results list (one pointer-sized
        # slot per access) plus the periodic 512-draw RNG leaf refills.
        # Per-access numpy work (path reads, write-backs, counter updates)
        # must run entirely in preallocated scratch: allow a fixed 64 KiB
        # slack, far below one numpy temporary per access (~2000 * >100B).
        results_bytes = len(steady) * 16
        assert growth <= results_bytes + 64 * 1024, (
            f"fused loop grew {growth}B over {len(steady)} accesses "
            f"(results list bound {results_bytes}B + 64KiB slack)"
        )
        # Peak admits the sync-out flush (stash re-materialization, counter
        # bulk add) but no per-access temporaries.
        assert peak - before <= results_bytes + 256 * 1024

    def test_matrix_loaded_fused_loop(self):
        """The row store's scalar set and get keep the loop allocation-free."""
        engine = PathORAM(_config())
        engine.load_payloads(np.zeros((NUM_BLOCKS, 8), dtype=np.float32))
        rows = [np.full(8, block_id, dtype=np.float32) for block_id in range(NUM_BLOCKS)]
        # Every block holds its overlay row before the measured traces.
        engine.write_many(list(range(NUM_BLOCKS)), rows)
        engine.run_trace(_trace(n=600, seed=3))

        steady = _trace(n=2000, seed=4)
        payloads = [rows[block_id] for block_id in steady]
        results_bytes = len(steady) * 16
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        written = engine.run_trace(steady, AccessOp.WRITE, payloads)
        after_writes, write_peak = tracemalloc.get_traced_memory()
        read = engine.run_trace(steady)
        assert [row[0] for row in read] == steady
        # What a read returns is a view per access; nothing else stays.
        del read
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert written == payloads

        # The writes' growth is the results list and the op list.
        assert after_writes - before <= 2 * results_bytes + 64 * 1024
        assert write_peak - before <= 2 * results_bytes + 256 * 1024
        assert after - after_writes <= 64 * 1024

    @pytest.mark.parametrize(
        "block_id", [3, 5, NUM_BLOCKS + 10], ids=["base-row", "overlay-row", "past-the-base"]
    )
    def test_a_row_store_get_holds_only_the_row_view(self, block_id):
        """A get is the bare view of the row it returns: no per-call temporary."""
        store = OverlayRowStore(np.zeros((NUM_BLOCKS, 8), dtype=np.float32), NUM_BLOCKS + 20)
        store[5] = np.ones(8, dtype=np.float32)
        slot = store._slot_of[block_id]
        rows, index = (store._base, block_id) if slot < 0 else (store._rows, slot)
        tracemalloc.start()
        try:
            got = _peak(lambda: store.get(block_id))
            bare = _peak(lambda: rows[index])
        finally:
            tracemalloc.stop()
        assert got <= bare, f"get held {got} B at its peak, the bare row view {bare} B"

    @pytest.mark.parametrize("first_write", [False, True], ids=["rewrite", "first-write"])
    def test_a_row_store_set_holds_only_the_row_copy(self, first_write):
        """A set is the bare copy of the row into its overlay row: no per-call temporary."""
        store = OverlayRowStore(np.zeros((NUM_BLOCKS, 8), dtype=np.float32), NUM_BLOCKS)
        row = np.full(8, 2.0, dtype=np.float32)
        store[5] = row
        # Fresh ids, one a call, stay well inside the overlay's first rows.
        fresh = iter(range(10, 20))
        tracemalloc.start()
        try:
            if first_write:
                got = _peak(lambda: store.__setitem__(next(fresh), row))
            else:
                got = _peak(lambda: store.__setitem__(5, row))
            bare = _peak(lambda: store._overlay.__setitem__(1, row))
        finally:
            tracemalloc.stop()
        assert got <= bare, f"a set held {got} B at its peak, the bare row copy {bare} B"
