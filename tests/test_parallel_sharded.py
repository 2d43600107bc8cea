"""Process-parallel ShardedRunner: bit-identity, crash safety, no shm use.

The parallel backend's contract is exact: for a fixed seed it must produce
*the same* merged traffic snapshot, per-shard stash occupancies and
position maps as the sequential in-process backend, for every shardable
family, both engine variants and any worker count.  The crash tests pin
down the failure contract: a worker raising mid-trace surfaces as a typed
:class:`~repro.exceptions.ShardExecutionError` in the parent and the torn-down
executor refuses further commands; shard state travels in command replies,
so ``/dev/shm`` holds nothing of ours at any point, a killed worker included.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import LAORAMClient, PathORAM
from repro.exceptions import ConfigurationError, ShardExecutionError
from repro.experiments.sharded import ProcessShardExecutor, ShardPlanner
from repro.experiments.sharded.executor import ShardHost, _pin_worker_threads

from oracle import REFERENCE_CLASSES, ShardedRunner

NUM_BLOCKS = 1 << 10
NUM_SHARDS = 3
NUM_ACCESSES = 600


def _trace(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 100)
    return rng.integers(0, NUM_BLOCKS, size=NUM_ACCESSES)


@pytest.fixture(autouse=True)
def hosts_name_their_engines(monkeypatch):
    """Every shard host, a forked worker's included, answers ``engine_classes``."""
    monkeypatch.setattr(
        ShardHost,
        "engine_classes",
        lambda host: {
            shard_id: type(engine).__name__
            for shard_id, engine in host.engines.items()
        },
        raising=False,
    )


def _engine_class_names(runner) -> set[str]:
    """The class names of the shard engines the runner's hosts built."""
    return set(runner.executor._ask_every("engine_classes").values())


def _family_class_name(family: str, fast: bool) -> str:
    shipped = {"laoram": LAORAMClient, "pathoram": PathORAM}
    return (shipped if fast else REFERENCE_CLASSES)[family].__name__


def _run(family: str, fast: bool, seed: int, num_workers, fat_tree: bool = False):
    kwargs = {} if num_workers is None else {"num_workers": num_workers}
    runner = ShardedRunner(
        NUM_BLOCKS,
        NUM_SHARDS,
        family=family,
        fat_tree=fat_tree,
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
            "engine_classes": _engine_class_names(runner),
        }
    finally:
        runner.close()


@pytest.mark.parametrize(
    "family,fat_tree",
    [("laoram", False), ("pathoram", False), ("laoram", True), ("pathoram", True)],
    ids=["laoram", "pathoram", "laoram-fat", "pathoram-fat"],
)
@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_parallel_backend_is_bit_identical(family, fat_tree, fast, seed):
    # The fat tree's geometry travels to the workers in the shard spec.
    sequential = _run(family, fast, seed, None, fat_tree=fat_tree)
    parallel = _run(family, fast, seed, 2, fat_tree=fat_tree)

    # Both backends built the variant asked for: the workers too.
    want = {_family_class_name(family, fast)}
    assert sequential["engine_classes"] == parallel["engine_classes"] == want

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
            assert _engine_class_names(runner) == {_family_class_name("laoram", fast)}
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


def _shm_entries() -> set[str]:
    # "sem.*" are the POSIX semaphores of multiprocessing's own queues, which
    # stay linked while in use under the spawn/forkserver start methods.
    return {e for e in os.listdir("/dev/shm") if not e.startswith("sem.")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm here")
def test_nothing_enters_dev_shm_from_start_to_kill_to_close():
    before = _shm_entries()
    runner = ShardedRunner(
        NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=2
    )
    try:
        assert _shm_entries() == before
        runner.run_trace(_trace(0))
        assert all("registry" not in s for s in runner.executor.states.values())
        assert _shm_entries() == before
        os.kill(runner.executor._procs[0].pid, signal.SIGKILL)
        with pytest.raises(ShardExecutionError):
            runner.run_trace(_trace(1))
        assert _shm_entries() == before
    finally:
        runner.close()
    assert _shm_entries() == before


def test_more_workers_than_shards_rejected():
    with pytest.raises(ConfigurationError):
        ShardedRunner(
            NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=NUM_SHARDS + 1
        )


def test_worker_exception_propagates_typed_and_tears_down():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()

    bad_traces = [np.arange(10, dtype=np.int64) for _ in range(NUM_SHARDS)]
    bad_traces[1] = np.array([10**9], dtype=np.int64)  # out of shard range
    with pytest.raises(ShardExecutionError) as excinfo:
        executor.run_local_traces(bad_traces)

    error = excinfo.value
    assert error.shard_id == 1
    assert error.original_type == "BlockNotFoundError"
    assert "Traceback" in error.worker_traceback
    # The failure tore the executor down: workers stopped, commands refused.
    assert executor._procs == []
    with pytest.raises(ShardExecutionError):
        executor.run_local_traces([np.arange(4)] * NUM_SHARDS)


def test_hard_killed_worker_is_detected_and_torn_down():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    survivor = executor._procs[1]

    os.kill(executor._procs[0].pid, signal.SIGKILL)
    with pytest.raises(ShardExecutionError) as excinfo:
        executor.run_local_traces(planner.split_trace(_trace(0)))
    assert "died without reporting" in str(excinfo.value)
    # The surviving worker is stopped with the dead one, and the executor
    # refuses further commands.
    assert not survivor.is_alive()
    with pytest.raises(ShardExecutionError):
        executor.refresh_states()


#: Each command of the protocol, as the parent issues it.
COMMANDS = {
    "run": lambda executor, planner: executor.run_local_traces(
        planner.split_trace(_trace(0))
    ),
    "access": lambda executor, planner: executor.access_on_worker(0, {0: [1, 2, 3]}),
    "state": lambda executor, planner: executor.refresh_states(),
    "posmap": lambda executor, planner: executor.position_maps(),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_to_a_dead_worker_raises_typed_and_tears_down(command):
    # The worker is reaped before the command, so its end of the pipe is
    # gone when the parent sends: a send on a broken pipe is a death too.
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    dead, survivor = executor._procs
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=5.0)
    with pytest.raises(ShardExecutionError) as excinfo:
        COMMANDS[command](executor, planner)
    assert "worker 0 died without reporting (exit code -9)" in str(excinfo.value)
    assert executor._procs == [] and not survivor.is_alive()
    executor.close()  # idempotent
    with pytest.raises(ShardExecutionError, match="executor is closed"):
        COMMANDS[command](executor, planner)


class _Deadline(BaseException):
    """Raised by SIGALRM; no handler in the executor catches it."""


def test_a_worker_that_dies_while_building_reads_as_dead_not_hung(monkeypatch):
    # The parent closes its copy of the worker's end of the pipe as soon as
    # the worker has started; held open, the worker's death would never
    # read as end of file, and start() would wait for "ready" forever.
    monkeypatch.setattr(
        ShardHost, "build", lambda host, specs: os.kill(os.getpid(), signal.SIGKILL)
    )
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=1)

    def deadline(signum, frame):
        raise _Deadline

    previous = signal.signal(signal.SIGALRM, deadline)
    signal.alarm(10)
    try:
        with pytest.raises(ShardExecutionError, match="died without reporting"):
            executor.start()
    except _Deadline:
        pytest.fail("start() still waited for a dead worker after 10 s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert executor._procs == []


def test_the_transport_starts_no_thread_and_close_closes_every_connection():
    threads = threading.active_count()
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    for worker_id in range(2):
        routed = {shard: [1, 2, 3] for shard in executor.shards_of(worker_id)}
        assert executor.access_on_worker(worker_id, routed) == 3 * len(routed)
    assert threading.active_count() == threads
    conns = list(executor._conns)
    assert len(conns) == 2 and not any(conn.closed for conn in conns)
    executor.close()
    assert all(conn.closed for conn in conns)
    assert threading.active_count() == threads


_ORPHANING_PARENT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.experiments.sharded import ProcessShardExecutor, ShardPlanner
executor = ProcessShardExecutor(ShardPlanner(64, 2, family="pathoram", seed=0), num_workers=2)
executor.start()
print(*(proc.pid for proc in executor._procs), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_orphaned_workers_exit_when_their_parent_is_killed():
    # Each worker holds copies of the parent's pipe ends from the fork (its
    # own, and the earlier workers'); it closes them, so the parent's death
    # ends its recv() and it exits instead of serving nobody.
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_PARENT, str(Path(repro.__file__).parents[1])],
        stdout=subprocess.PIPE,
        text=True,
    )
    workers: list[int] = []
    try:
        ready, _, _ = select.select([parent.stdout], [], [], 30.0)
        assert ready, "the parent did not start its workers within 30 s"
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2 and all(_running(pid) for pid in workers)
        parent.kill()
        parent.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        parent.kill()
        parent.wait(timeout=5.0)
        parent.stdout.close()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_an_out_of_step_reply_raises_typed_and_tears_down():
    # A request queued ahead of "state": the worker answers it first, in
    # the order its one pipe hands them over, and that reply must
    # not be taken for the answer to "state" (an ``assert`` that
    # ``python -O`` strips used to be the only check).
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="pathoram", seed=0)
    executor = ProcessShardExecutor(planner, num_workers=2)
    executor.start()
    executor._conns[0].send(("posmap",))
    with pytest.raises(ShardExecutionError) as excinfo:
        executor.refresh_states()
    message = str(excinfo.value)
    assert "'posmap'" in message and "'state'" in message
    assert executor._procs == []
    with pytest.raises(ShardExecutionError):
        executor.refresh_states()


def test_executor_context_manager_and_idempotent_close():
    planner = ShardPlanner(NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0)
    with ProcessShardExecutor(planner, num_workers=1) as executor:
        states = executor.run_local_traces(planner.split_trace(_trace(0)))
        assert sorted(states) == list(range(NUM_SHARDS))
        procs = list(executor._procs)
    executor.close()  # second close is a no-op
    assert procs and not any(proc.is_alive() for proc in procs)


def test_position_maps_after_a_second_trace_equal_the_in_process_backends():
    with ShardedRunner(
        NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0
    ) as in_process, ShardedRunner(
        NUM_BLOCKS, NUM_SHARDS, family="laoram", seed=0, num_workers=2
    ) as parallel:
        for runner in (in_process, parallel):
            runner.run_trace(_trace(0))
        first = parallel.position_maps()
        for runner in (in_process, parallel):
            runner.run_trace(_trace(1))
        second = parallel.position_maps()
        # Asked of the live workers each time, not a copy from the first run.
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))
        for shard_id, (par_map, seq_map) in enumerate(
            zip(second, in_process.position_maps())
        ):
            assert par_map.size == parallel.planner.shard_num_blocks(shard_id)
            assert np.array_equal(par_map, seq_map)


def test_worker_thread_pinning_env(monkeypatch):
    from repro.experiments.sharded.executor import _THREAD_ENV_VARS

    # Register every pinned variable with monkeypatch first so its original
    # state (including absence) is restored after the test.
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "unpinned")
    _pin_worker_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
