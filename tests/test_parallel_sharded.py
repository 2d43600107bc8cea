"""Process-parallel ShardedRunner: bit-identity, crash safety, shm hygiene.

The parallel backend's contract is exact: for a fixed seed it must produce
*the same* merged traffic snapshot, per-shard stash occupancies and
position maps as the sequential in-process backend, for every shardable
family, both engine variants and any worker count.  The crash tests pin
down the failure contract: a worker raising mid-trace surfaces as a typed
:class:`~repro.exceptions.ShardExecutionError` in the parent and leaves no
shared-memory segment behind (checked against the live registries and
``/dev/shm``), even when the worker is killed outright.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShardExecutionError
from repro.experiments.sharded import ProcessShardExecutor, ShardedRunner, ShardPlanner
from repro.experiments.sharded.executor import _pin_worker_threads
from repro.oram.shm import leaked_segments

NUM_BLOCKS = 1 << 10
NUM_SHARDS = 3
NUM_ACCESSES = 600


def _trace(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 100)
    return rng.integers(0, NUM_BLOCKS, size=NUM_ACCESSES)


def _run(family: str, fast: bool, seed: int, num_workers):
    kwargs = {} if num_workers is None else {"num_workers": num_workers}
    runner = ShardedRunner(
        NUM_BLOCKS,
        NUM_SHARDS,
        family=family,
        seed=seed,
        use_fast_engine=fast,
        **kwargs,
    )
    try:
        merged = runner.run_trace(_trace(seed))
        return {
            "merged": merged,
            "results": runner.results,
            "occupancies": runner.stash_occupancies(),
            "position_maps": runner.position_maps(),
            "total_real_blocks": runner.total_real_blocks(),
            "simulated_parallel": runner.simulated_time_parallel_s,
        }
    finally:
        runner.close()


@pytest.mark.parametrize("family", ["laoram", "pathoram", "ringoram", "proram"])
@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_parallel_backend_is_bit_identical(family, fast, seed):
    sequential = _run(family, fast, seed, None)
    parallel = _run(family, fast, seed, 2)

    assert parallel["merged"] == sequential["merged"]
    assert parallel["occupancies"] == sequential["occupancies"]
    for par_map, seq_map in zip(
        parallel["position_maps"], sequential["position_maps"]
    ):
        assert np.array_equal(par_map, seq_map)
    for par_result, seq_result in zip(parallel["results"], sequential["results"]):
        assert par_result == seq_result
    assert parallel["total_real_blocks"] == NUM_BLOCKS
    assert parallel["simulated_parallel"] == sequential["simulated_parallel"]


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_worker_grouping_does_not_change_results(num_workers):
    reference = _run("laoram", True, 0, None)
    grouped = _run("laoram", True, 0, num_workers)
    assert grouped["merged"] == reference["merged"]
    assert grouped["results"] == reference["results"]


@pytest.mark.parametrize("fast", [True, False])
def test_runner_replays_trace_after_trace(fast):
    # A second run_trace on a LAORAM runner used to raise "initial placement
    # can only be applied before any access": placement is now the shard
    # engine's own decision, so both backends take trace after trace and
    # stay bit-identical.
    outcomes = []
    for kwargs in ({}, {"num_workers": 1}):
        runner = ShardedRunner(
            NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0,
            use_fast_engine=fast, **kwargs,
        )
        try:
            runner.run_trace(_trace(0))
            merged = runner.run_trace(_trace(1))
            assert merged.logical_accesses == 2 * NUM_ACCESSES
            assert runner.total_real_blocks() == NUM_BLOCKS
            outcomes.append(
                (merged, runner.stash_occupancies(), runner.position_maps())
            )
        finally:
            runner.close()
    (seq_merged, seq_occ, seq_maps), (par_merged, par_occ, par_maps) = outcomes
    assert par_merged == seq_merged
    assert par_occ == seq_occ
    for par_map, seq_map in zip(par_maps, seq_maps):
        assert np.array_equal(par_map, seq_map)


def test_parallel_runner_releases_all_shared_memory():
    runner = ShardedRunner(
        NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=2
    )
    prefix = runner.executor.prefix
    runner.run_trace(_trace(0))
    registries = [s["registry"] for s in runner.executor.states.values()]
    assert all(registries), "workers should report shared-array registries"
    runner.close()
    assert leaked_segments(prefix, registries) == []


def test_more_workers_than_shards_rejected():
    with pytest.raises(ConfigurationError):
        ShardedRunner(
            NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=NUM_SHARDS + 1
        )


def test_worker_exception_propagates_typed_and_leaves_no_segments():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    prefix = executor.prefix
    registries = [s["registry"] for s in executor.states.values()]

    bad_traces = [np.arange(10, dtype=np.int64) for _ in range(NUM_SHARDS)]
    bad_traces[1] = np.array([10**9], dtype=np.int64)  # out of shard range
    with pytest.raises(ShardExecutionError) as excinfo:
        executor.run_local_traces(bad_traces)

    error = excinfo.value
    assert error.shard_id == 1
    assert error.original_type == "BlockNotFoundError"
    assert "Traceback" in error.worker_traceback
    # The failure tore the executor down: workers stopped, segments unlinked.
    assert leaked_segments(prefix, registries) == []
    with pytest.raises(ShardExecutionError):
        executor.run_local_traces([np.arange(4)] * NUM_SHARDS)


def test_hard_killed_worker_is_detected_and_swept():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    prefix = executor.prefix
    registries = [s["registry"] for s in executor.states.values()]

    os.kill(executor._procs[0].pid, signal.SIGKILL)
    with pytest.raises(ShardExecutionError) as excinfo:
        executor.run_local_traces(planner.split_trace(_trace(0)))
    assert "died without reporting" in str(excinfo.value)
    # A SIGKILLed worker cannot run its cleanup; the parent sweep must.
    assert leaked_segments(prefix, registries) == []


def test_executor_context_manager_and_idempotent_close():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0)
    with ProcessShardExecutor(planner, num_workers=1) as executor:
        prefix = executor.prefix
        states = executor.run_local_traces(planner.split_trace(_trace(0)))
        assert sorted(states) == list(range(NUM_SHARDS))
    executor.close()  # second close is a no-op
    assert leaked_segments(prefix) == []


def test_parallel_snapshot_reads_live_worker_state():
    with ShardedRunner(
        NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=2
    ) as runner:
        runner.run_trace(_trace(0))
        arrays = runner.executor.read_shard_arrays(0)
        assert "posmap.leaves" in arrays
        assert arrays["posmap.leaves"].size == runner.shard_num_blocks(0)
        assert np.array_equal(arrays["posmap.leaves"], runner.position_maps()[0])


def test_worker_thread_pinning_env(monkeypatch):
    from repro.experiments.sharded.executor import _THREAD_ENV_VARS

    # Register every pinned variable with monkeypatch first so its original
    # state (including absence) is restored after the test.
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "unpinned")
    monkeypatch.delenv("REPRO_WORKER_THREADS", raising=False)
    _pin_worker_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("REPRO_WORKER_THREADS", "3")
    _pin_worker_threads()
    assert os.environ["OMP_NUM_THREADS"] == "3"
