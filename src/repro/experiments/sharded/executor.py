"""Process-parallel shard execution over shared-memory engine state.

One executor drives ``num_workers`` worker processes; shard ``s`` is owned
by worker ``s % num_workers``, so any worker count from 1 to ``num_shards``
runs the *same* per-shard computation (shards are independent and each is
executed sequentially by exactly one process — grouping cannot change
results).  Each worker builds its shards' engines from picklable
:class:`~repro.experiments.sharded.planner.ShardEngineSpec` recipes and
backs their numpy state with one
:class:`~repro.oram.shm.SharedMemoryArrayPool` per shard, so the parent can
snapshot position maps / tree slots / tree occupancy by attaching to the
segments (a memcpy, not a pickle).

Protocol (one request queue and one response queue per worker):

========================  =====================================================
parent -> worker           worker -> parent
========================  =====================================================
``("run", traces)``        ``("result", {shard: state})`` after all its shards
``("access", rid, ids)``   ``("served", rid, count)``
``("state",)``             ``("state", {shard: state})``
``("stop",)``              (worker exits; pools unlinked in its ``finally``)
any command failing        ``("error", shard, type, message, traceback)``
========================  =====================================================

Cleanup is layered: the worker unlinks its own segments in a ``finally``
(covers exceptions), the parent force-unlinks every registered segment after
a hard kill (covers ``SIGKILL``), and :meth:`ProcessShardExecutor.close` is
idempotent so ``with`` blocks and error paths can both call it.

Workers pin numpy/BLAS to one thread each (``OMP_NUM_THREADS=1`` and
friends) before touching numpy, so library-internal threading does not fight
the process pool for cores; set ``REPRO_WORKER_THREADS`` to override.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import secrets
import time
import traceback
from typing import NoReturn, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ShardExecutionError
from repro.experiments.sharded.planner import ShardEngineSpec, ShardPlanner
from repro.oram.shm import (
    Registry,
    SharedMemoryArrayPool,
    read_registry,
    unlink_registry,
)

#: Environment knobs that cap numpy/BLAS internal thread pools.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Override for the per-worker thread cap (default: 1 thread per worker).
WORKER_THREADS_ENV = "REPRO_WORKER_THREADS"

#: Override for the multiprocessing start method (default: fork when available).
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def _pin_worker_threads() -> None:
    """Cap numpy/BLAS thread pools inside a worker process.

    Each worker is meant to own one core; letting BLAS spawn its own pool
    per process oversubscribes the machine and serializes on contention.
    ``REPRO_WORKER_THREADS`` overrides the cap for hosts with cores to
    spare.  Env pinning is best-effort under the ``fork`` start method
    (an already-initialized parent BLAS keeps its pool) but the engines'
    kernels are memory-bound gathers where one thread is the right answer
    anyway.
    """
    threads = os.environ.get(WORKER_THREADS_ENV, "1")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = threads


def _shard_state(engine, num_accesses: int, registry: Registry) -> dict:
    """Picklable summary of one shard engine's current state."""
    return {
        "num_blocks": engine.num_blocks,
        "num_accesses": int(num_accesses),
        "snapshot": engine.statistics,
        "simulated_time_s": engine.simulated_time_s,
        "stash_occupancy": engine.stash_occupancy,
        "server_memory_bytes": engine.server_memory_bytes,
        "total_real_blocks": engine.total_real_blocks(),
        "registry": registry,
    }


def _shard_worker(
    worker_id: int,
    shard_specs: dict[int, ShardEngineSpec],
    prefix: str,
    requests: "mp.Queue",
    responses: "mp.Queue",
) -> None:
    """Worker main loop: build owned shard engines, serve commands until stop.

    Runs in a child process.  Any exception while handling a command is
    reported as an ``("error", ...)`` message and terminates the worker; the
    ``finally`` unlinks every shared segment the worker created, so even a
    crashing shard leaves nothing in ``/dev/shm``.
    """
    _pin_worker_threads()
    pools: dict[int, SharedMemoryArrayPool] = {}
    engines: dict[int, object] = {}
    current_shard = -1
    try:
        try:
            for shard_id, spec in shard_specs.items():
                current_shard = shard_id
                pool = SharedMemoryArrayPool(f"{prefix}s{shard_id}")
                pools[shard_id] = pool
                engines[shard_id] = spec.build(allocator=pool)
            current_shard = -1
            responses.put(
                (
                    "ready",
                    {
                        shard_id: _shard_state(engine, 0, pools[shard_id].registry())
                        for shard_id, engine in engines.items()
                    },
                )
            )
            while True:
                message = requests.get()
                op = message[0]
                if op == "stop":
                    break
                if op == "run":
                    _, local_traces = message
                    states = {}
                    for shard_id, local_trace in local_traces.items():
                        current_shard = shard_id
                        engine = engines[shard_id]
                        engine.run_trace(local_trace)
                        states[shard_id] = _shard_state(
                            engine, local_trace.size, pools[shard_id].registry()
                        )
                    current_shard = -1
                    responses.put(("result", states))
                elif op == "access":
                    _, request_id, routed = message
                    count = 0
                    for shard_id, local_ids in routed.items():
                        current_shard = shard_id
                        engine = engines[shard_id]
                        engine.access_many(local_ids)
                        count += len(local_ids)
                    current_shard = -1
                    responses.put(("served", request_id, count))
                elif op == "state":
                    responses.put(
                        (
                            "state",
                            {
                                shard_id: _shard_state(
                                    engine, 0, pools[shard_id].registry()
                                )
                                for shard_id, engine in engines.items()
                            },
                        )
                    )
                else:
                    raise ConfigurationError(f"unknown worker command {op!r}")
        except Exception as exc:  # reported to the parent, then the worker dies
            responses.put(
                (
                    "error",
                    current_shard,
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            )
    finally:
        for pool in pools.values():
            pool.close(unlink=True)


class ProcessShardExecutor:
    """Drive shard engines in worker processes and merge their results.

    The executor is the mechanical half of parallel sharding: it spawns the
    workers, ships them their engine specs, routes commands, and converts
    worker-side failures into :class:`~repro.exceptions.ShardExecutionError`
    in the parent.  Policy (shard geometry, trace routing, result
    aggregation) stays in the planner and runner.

    ``num_workers`` may be any value in ``[1, num_shards]``; scaling runs
    hold the shard count fixed and vary only the worker count, so speedups
    measure parallelism rather than a different partition.
    """

    def __init__(
        self,
        planner: ShardPlanner,
        num_workers: int,
        start_method: Optional[str] = None,
        prefix: Optional[str] = None,
    ):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if num_workers > planner.num_shards:
            raise ConfigurationError(
                f"num_workers ({num_workers}) cannot exceed "
                f"num_shards ({planner.num_shards}): workers own whole shards"
            )
        self.planner = planner
        self.num_workers = num_workers
        method = start_method or os.environ.get(START_METHOD_ENV)
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._ctx = mp.get_context(method)
        # Short prefix: POSIX shm names are length-limited on some platforms.
        self.prefix = prefix or f"rsh{os.getpid() % 0xFFFF:04x}{secrets.token_hex(2)}"
        self._procs: list = []
        self._requests: list = []
        self._responses: list = []
        self._states: dict[int, dict] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def worker_of(self, shard_id: int) -> int:
        """Worker process owning ``shard_id``."""
        return shard_id % self.num_workers

    def shards_of(self, worker_id: int) -> list[int]:
        """Shards owned by ``worker_id``, in execution order."""
        return list(range(worker_id, self.planner.num_shards, self.num_workers))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and wait for every shard engine to be built."""
        if self._closed:
            raise ShardExecutionError(-1, message="executor is closed")
        if self._started:
            return
        for worker_id in range(self.num_workers):
            specs = {s: self.planner.engine_spec(s) for s in self.shards_of(worker_id)}
            req: "mp.Queue" = self._ctx.Queue()
            resp: "mp.Queue" = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_shard_worker,
                args=(worker_id, specs, self.prefix, req, resp),
                daemon=True,
                name=f"repro-shard-w{worker_id}",
            )
            proc.start()
            self._procs.append(proc)
            self._requests.append(req)
            self._responses.append(resp)
        self._started = True
        for worker_id in range(self.num_workers):
            tag, states = self._recv(worker_id)
            assert tag == "ready"
            self._states.update(states)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and reclaim every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._requests[worker_id].put(("stop",))
                except (ValueError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in self._requests + self._responses:
            q.cancel_join_thread()
            q.close()
        # Belt-and-braces: workers unlink their own segments on the way out,
        # so this normally removes nothing; after a hard kill it reclaims
        # whatever the worker left behind.
        for state in self._states.values():
            unlink_registry(state["registry"])
        self._procs = []
        self._requests = []
        self._responses = []

    def __enter__(self) -> "ProcessShardExecutor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort; explicit close() is the supported path
        try:
            self.close(timeout=0.5)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _fail(self, error: ShardExecutionError) -> NoReturn:
        """Tear everything down after a worker failure, then raise."""
        self.close(timeout=1.0)
        raise error

    def _recv(self, worker_id: int, poll_s: float = 0.1):
        """Next message from ``worker_id``; converts death/errors to raises.

        Blocks until a message arrives, polling worker liveness so a worker
        that died without reporting (``SIGKILL``, interpreter abort) raises
        a :class:`ShardExecutionError` instead of hanging forever.
        """
        response_queue = self._responses[worker_id]
        proc = self._procs[worker_id]
        while True:
            try:
                message = response_queue.get(timeout=poll_s)
            except queue.Empty:
                if not proc.is_alive():
                    try:  # a final message may have raced with the death
                        message = response_queue.get_nowait()
                    except queue.Empty:
                        self._fail(
                            ShardExecutionError(
                                min(self.shards_of(worker_id), default=-1),
                                message=(
                                    f"worker {worker_id} died without reporting "
                                    f"(exit code {proc.exitcode})"
                                ),
                            )
                        )
                else:
                    continue
            if message[0] == "error":
                _tag, shard_id, type_name, detail, worker_tb = message
                self._fail(
                    ShardExecutionError(shard_id, type_name, detail, worker_tb)
                )
            return message

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_local_traces(
        self, local_traces: Sequence[np.ndarray]
    ) -> dict[int, dict]:
        """Execute per-shard local traces on the workers; return shard states.

        One ``run`` command per worker carries all of that worker's shard
        slices; workers execute concurrently, shards within a worker
        sequentially.  Returns the per-shard state dicts (snapshot,
        simulated time, stash occupancy, registry, ...) keyed by shard id.
        """
        self.start()
        for worker_id in range(self.num_workers):
            traces = {s: np.asarray(local_traces[s], dtype=np.int64)
                      for s in self.shards_of(worker_id)}
            self._requests[worker_id].put(("run", traces))
        for worker_id in range(self.num_workers):
            tag, states = self._recv(worker_id)
            assert tag == "result"
            self._states.update(states)
        return dict(self._states)

    def access_on_worker(self, worker_id: int, routed: dict[int, list[int]]) -> int:
        """Serve one coalesced batch on ``worker_id``; blocks for completion.

        ``routed`` maps shard id -> local ids; every shard must belong to
        ``worker_id``.  Used by the serving front-end, which dedicates one
        dispatcher per worker so request/response pairs never interleave.
        """
        for shard_id in routed:
            if self.worker_of(shard_id) != worker_id:
                raise ConfigurationError(
                    f"shard {shard_id} is not owned by worker {worker_id}"
                )
        self.start()
        self._requests[worker_id].put(("access", 0, routed))
        tag, _request_id, count = self._recv(worker_id)
        assert tag == "served"
        return count

    def refresh_states(self) -> dict[int, dict]:
        """Re-poll every worker for current shard states (post-serving)."""
        self.start()
        for worker_id in range(self.num_workers):
            self._requests[worker_id].put(("state",))
        for worker_id in range(self.num_workers):
            tag, states = self._recv(worker_id)
            assert tag == "state"
            self._states.update(states)
        return dict(self._states)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def states(self) -> dict[int, dict]:
        """Last known per-shard state dicts, keyed by shard id."""
        return dict(self._states)

    def read_shard_arrays(self, shard_id: int) -> dict[str, np.ndarray]:
        """Copy a live shard's shared arrays out of its segments.

        Zero-pickle snapshot path: attaches to the worker's segments and
        memcpys (``posmap.leaves``, ``tree.slots``, ... — whatever the
        shard's engine allocated through its pool).  The worker must still
        be alive; a closed executor's segments are gone.
        """
        if self._closed:
            raise ShardExecutionError(shard_id, message="executor is closed")
        state = self._states.get(shard_id)
        if state is None:
            raise ShardExecutionError(shard_id, message="shard state unknown")
        return read_registry(state["registry"])

    def position_map(self, shard_id: int) -> np.ndarray:
        """Copy of one shard's live position map (from shared memory)."""
        return self.read_shard_arrays(shard_id)["posmap.leaves"]
