"""Shard execution: one host object, called in-process or behind a pipe.

A :class:`ShardHost` holds the engines of the shards one execution unit
owns and answers four commands about them.  :class:`ShardExecutor` calls
one host per shard directly in this process; :class:`ProcessShardExecutor`
puts the same object behind one duplex pipe in each of ``num_workers``
worker processes, shard ``s`` owned by worker ``s % num_workers``.  Shards are independent and each is executed
sequentially by exactly one host, so grouping cannot change results: any
worker count from 1 to ``num_shards``, and the in-process backend, run the
*same* per-shard computation on engines built from the same picklable
:class:`~repro.experiments.sharded.planner.ShardEngineSpec` recipes.

Everything the parent learns about a shard is the reply to a command
(pickled over the worker's pipe, one ``send`` and one blocking ``recv`` a
side per command, no thread in between; engines allocate ordinary private
numpy arrays):

=====================  ======================================================
parent -> worker        worker -> parent
=====================  ======================================================
(process start)         ``("ready", {shard: state})`` once engines are built
``("run", traces)``     ``("run", {shard: state})`` after all its shards
``("access", routed)``  ``("access", served id count)``
``("state",)``          ``("state", {shard: state})``
``("posmap",)``         ``("posmap", {shard: position-map array})``
``("stop",)``           (worker exits)
any command failing     ``("error", shard, type, message, traceback)``
=====================  ======================================================

A worker that reports an error or dies without reporting one surfaces in
the parent as :class:`~repro.exceptions.ShardExecutionError` and tears the
executor down; :meth:`ProcessShardExecutor.close` is idempotent so ``with``
blocks and error paths can both call it.  A death is the pipe's end of
file: each end is open in exactly one process (the parent closes the
worker's end once it has started, and a worker closes every parent end it
inherited), so a worker's exit fails the parent's ``send`` or ``recv`` at
once, and the parent's exit ends each worker's ``recv`` and the worker.

Workers pin numpy/BLAS to one thread each (``OMP_NUM_THREADS=1`` and
friends) before touching numpy, so library-internal threading does not fight
the process pool for cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from multiprocessing.connection import Connection
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ShardExecutionError
from repro.experiments.sharded.planner import ShardEngineSpec, ShardPlanner

#: Environment knobs that cap numpy/BLAS internal thread pools.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_worker_threads() -> None:
    """Cap numpy/BLAS thread pools at one thread inside a worker process.

    Each worker is meant to own one core; letting BLAS spawn its own pool
    per process oversubscribes the machine and serializes on contention.
    Env pinning is best-effort under the ``fork`` start method (an
    already-initialized parent BLAS keeps its pool) but the engines'
    kernels are memory-bound gathers where one thread is the right answer
    anyway.
    """
    for var in _THREAD_ENV_VARS:
        os.environ[var] = "1"


class ShardHost:
    """The engines of the shards one execution unit owns.

    The methods other than :meth:`build` are the commands of the protocol
    above, named as the protocol names them; their return values are the
    replies.  ``current_shard`` is the shard being worked on (-1 between
    shards), which is what a worker reports when a command fails.
    """

    def __init__(self) -> None:
        self.engines: dict[int, object] = {}
        self.current_shard = -1

    def _each(self, shard_ids: Iterable[int]) -> Iterator[int]:
        for shard_id in shard_ids:
            self.current_shard = shard_id
            yield shard_id
        self.current_shard = -1

    def build(self, specs: dict[int, ShardEngineSpec]) -> None:
        """Construct the engines ``specs`` describes."""
        for shard_id in self._each(specs):
            self.engines[shard_id] = specs[shard_id].build()

    def run(self, local_traces: dict[int, np.ndarray]) -> dict[int, dict]:
        """Replay each shard's local trace in turn; returns their states."""
        for shard_id in self._each(local_traces):
            self.engines[shard_id].run_trace(local_traces[shard_id])
        return self.state()

    def access(self, routed: dict[int, list[int]]) -> int:
        """Serve one coalesced batch (shard -> local ids); returns its size."""
        for shard_id in self._each(routed):
            self.engines[shard_id].access_many(routed[shard_id])
        return sum(len(local_ids) for local_ids in routed.values())

    def state(self) -> dict[int, dict]:
        """Picklable summary of every owned shard engine's current state."""
        return {
            shard_id: {
                "num_blocks": engine.num_blocks,
                "snapshot": engine.statistics,
                "simulated_time_s": engine.simulated_time_s,
                "stash_occupancy": engine.stash_occupancy,
                "server_memory_bytes": engine.server_memory_bytes,
                "total_real_blocks": engine.total_real_blocks(),
            }
            for shard_id, engine in self.engines.items()
        }

    def posmap(self) -> dict[int, np.ndarray]:
        """Copy of every owned shard's position map."""
        return {
            shard_id: engine.position_map.as_array()
            for shard_id, engine in self.engines.items()
        }


def _shard_worker(
    shard_specs: dict[int, ShardEngineSpec],
    conn: Connection,
    parent_ends: Sequence[Connection],
) -> None:
    """Worker main loop: a :class:`ShardHost` behind its end of a pipe.

    Runs in a child process.  ``parent_ends`` are the parent's ends of this
    worker's pipe and of the earlier workers', which a forked child holds
    copies of: closing them leaves the parent the only holder, so its exit
    reads here as end of file and the worker exits with it.  Any exception
    while building the engines or handling a command is reported as an
    ``("error", ...)`` message and terminates the worker.
    """
    for end in parent_ends:
        end.close()
    _pin_worker_threads()
    host = ShardHost()
    try:
        host.build(shard_specs)
        conn.send(("ready", host.state()))
        while True:
            op, *args = conn.recv()
            if op == "stop":
                break
            conn.send((op, getattr(host, op)(*args)))
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the parent is gone: nobody to report to
    except Exception as exc:  # reported to the parent, then the worker dies
        conn.send(
            (
                "error",
                host.current_shard,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )
        )


class ShardExecutor:
    """Run shard engines on :class:`ShardHost` objects and collect replies.

    This class is the in-process backend — ``num_workers`` hosts living in
    this process, commands being plain method calls, an engine's exception
    propagating as itself — and the base of the worker-process backend,
    which replaces only where the hosts live (:meth:`start`,
    :meth:`close`), how a command reaches them (:meth:`_ask`) and how fresh
    :attr:`states` is.  Policy (shard geometry, trace routing, result
    aggregation) stays in the planner and runner.
    """

    def __init__(self, planner: ShardPlanner, num_workers: int):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if num_workers > planner.num_shards:
            raise ConfigurationError(
                f"num_workers ({num_workers}) cannot exceed "
                f"num_shards ({planner.num_shards}): workers own whole shards"
            )
        self.planner = planner
        self.num_workers = num_workers
        #: The in-process hosts, by unit (empty when they live in workers).
        self.hosts: list[ShardHost] = []
        self._states: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def worker_of(self, shard_id: int) -> int:
        """Execution unit (host) owning ``shard_id``."""
        return shard_id % self.num_workers

    def shards_of(self, worker_id: int) -> list[int]:
        """Shards owned by ``worker_id``, in execution order."""
        return list(range(worker_id, self.planner.num_shards, self.num_workers))

    def _specs_of(self, worker_id: int) -> dict[int, ShardEngineSpec]:
        return {s: self.planner.engine_spec(s) for s in self.shards_of(worker_id)}

    # ------------------------------------------------------------------
    # Lifecycle and messaging (what the worker-process backend replaces)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build every shard engine (idempotent)."""
        if self.hosts:
            return
        for worker_id in range(self.num_workers):
            host = ShardHost()
            host.build(self._specs_of(worker_id))
            self.hosts.append(host)

    def close(self) -> None:
        """Release what :meth:`start` acquired (nothing, in-process)."""

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ask(self, op: str, args_by_unit: dict[int, tuple]) -> dict[int, object]:
        """Send command ``op`` to each listed unit; returns replies by unit."""
        self.start()
        return {
            unit: getattr(self.hosts[unit], op)(*args)
            for unit, args in args_by_unit.items()
        }

    @property
    def states(self) -> dict[int, dict]:
        """Per-shard state dicts, keyed by shard id (read live, in-process)."""
        return self.refresh_states()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ask_every(self, op: str, args_of=lambda unit: ()) -> dict[int, object]:
        """Send ``op`` to every unit; merge their per-shard replies."""
        by_shard: dict[int, object] = {}
        for reply in self._ask(
            op, {unit: args_of(unit) for unit in range(self.num_workers)}
        ).values():
            by_shard.update(reply)
        return by_shard

    def run_local_traces(
        self, local_traces: Sequence[np.ndarray]
    ) -> dict[int, dict]:
        """Execute per-shard local traces on the hosts; return shard states.

        One ``run`` command per unit carries all of that unit's shard
        slices; worker processes execute concurrently, shards within a unit
        sequentially.  Returns the per-shard state dicts (snapshot,
        simulated time, stash occupancy, ...) keyed by shard id.
        """
        self._states = self._ask_every(
            "run",
            lambda unit: (
                {
                    s: np.asarray(local_traces[s], dtype=np.int64)
                    for s in self.shards_of(unit)
                },
            ),
        )
        return dict(self._states)

    def access_on_worker(self, worker_id: int, routed: dict[int, list[int]]) -> int:
        """Serve one coalesced batch on ``worker_id``; blocks for completion.

        ``routed`` maps shard id -> local ids; every shard must belong to
        ``worker_id``.  Returns the number of ids served.  Used by the
        serving front-end, which dedicates one dispatcher per unit so
        request/response pairs never interleave.
        """
        for shard_id in routed:
            if self.worker_of(shard_id) != worker_id:
                raise ConfigurationError(
                    f"shard {shard_id} is not owned by worker {worker_id}"
                )
        return self._ask("access", {worker_id: (routed,)})[worker_id]

    def refresh_states(self) -> dict[int, dict]:
        """Re-poll every unit for current shard states (post-serving)."""
        self._states = self._ask_every("state")
        return dict(self._states)

    def position_maps(self) -> list[np.ndarray]:
        """Copy of every shard's current position map, in shard order: each
        unit's :meth:`ShardHost.posmap` reply."""
        maps = self._ask_every("posmap")
        return [maps[s] for s in range(self.planner.num_shards)]


class ProcessShardExecutor(ShardExecutor):
    """The worker-process backend: each host behind one duplex pipe.

    Spawns the workers, ships them their engine specs, routes commands, and
    converts worker-side failures into
    :class:`~repro.exceptions.ShardExecutionError` in the parent.

    ``num_workers`` may be any value in ``[1, num_shards]``; scaling runs
    hold the shard count fixed and vary only the worker count, so speedups
    measure parallelism rather than a different partition.
    """

    def __init__(
        self,
        planner: ShardPlanner,
        num_workers: int,
        start_method: Optional[str] = None,
    ):
        super().__init__(planner, num_workers)
        if start_method is None and "fork" in mp.get_all_start_methods():
            start_method = "fork"
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        #: The parent's end of each worker's pipe, by worker.
        self._conns: list[Connection] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and wait for every shard engine to be built."""
        if self._closed:
            raise ShardExecutionError(-1, message="executor is closed")
        if self._procs:
            return
        for worker_id in range(self.num_workers):
            conn, child_end = self._ctx.Pipe()
            self._conns.append(conn)
            proc = self._ctx.Process(
                target=_shard_worker,
                args=(self._specs_of(worker_id), child_end, list(self._conns)),
                daemon=True,
                name=f"repro-shard-w{worker_id}",
            )
            proc.start()
            child_end.close()
            self._procs.append(proc)
        for worker_id in range(self.num_workers):
            self._states.update(self._recv(worker_id, "ready"))

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (idempotent); later commands are refused."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:  # that worker is gone already
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []

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

    def _died(self, worker_id: int, proc) -> NoReturn:
        """``worker_id``'s pipe reads as closed: ``proc`` exited without reporting."""
        proc.join(timeout=1.0)
        self._fail(
            ShardExecutionError(
                min(self.shards_of(worker_id), default=-1),
                message=(
                    f"worker {worker_id} died without reporting "
                    f"(exit code {proc.exitcode})"
                ),
            )
        )

    def _recv(self, worker_id: int, op: str):
        """``worker_id``'s reply to ``op``; converts death/errors to raises.

        Blocks until a message or the pipe's end of file arrives: a worker
        that died without reporting (``SIGKILL``, interpreter abort) closed
        the pipe's only other end.
        """
        conn, proc = self._conns[worker_id], self._procs[worker_id]
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._died(worker_id, proc)
        if message[0] == "error":
            _tag, shard_id, type_name, detail, worker_tb = message
            self._fail(ShardExecutionError(shard_id, type_name, detail, worker_tb))
        tag, reply = message
        if tag != op:
            self._fail(
                ShardExecutionError(
                    min(self.shards_of(worker_id), default=-1),
                    message=(
                        f"worker {worker_id} answered '{tag}' to '{op}': "
                        "replies out of step with requests"
                    ),
                )
            )
        return reply

    def _ask(self, op: str, args_by_unit: dict[int, tuple]) -> dict[int, object]:
        self.start()
        for unit, args in args_by_unit.items():
            try:
                self._conns[unit].send((op, *args))
            except OSError:
                self._died(unit, self._procs[unit])
        return {unit: self._recv(unit, op) for unit in args_by_unit}

    @property
    def states(self) -> dict[int, dict]:
        """Per-shard state dicts as of the workers' last ``run``/``state`` reply."""
        return dict(self._states)
