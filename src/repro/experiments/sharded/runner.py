"""Sharded trace execution: one ORAM engine per independent block-id shard.

The paper's deployment protects one embedding table with one ORAM client.
Production recommendation systems shard their tables across trainer hosts,
and the same idea applies here: block ids are partitioned round-robin into
``num_shards`` disjoint namespaces, each shard owns an independent (smaller)
ORAM tree/stash/position map, and a trace is executed by routing every
access to its shard's engine.  The merged
:class:`~repro.memory.accounting.TrafficSnapshot` sums the additive traffic
counters while ``simulated_time_s`` reports the slowest shard (the
parallel-deployment critical path) alongside the serial sum.

Execution comes in two backends behind one facade:

* **in-process** (``num_workers=None``, the default): one
  :class:`~repro.experiments.sharded.executor.ShardHost` per shard lives in
  this process and runs in turn — the pure-Python harness used by
  experiments and tests;
* **process-parallel** (``num_workers=N``): the same host objects live in
  ``N`` worker processes (shard ``s`` -> worker ``s % N``) behind a queue
  pair each, and everything the parent reads — snapshot, clock, stash
  occupancy, position map — comes back as the pickled reply to a command.
  Because shards share no state and each is executed sequentially by
  exactly one host, the two backends are **bit-identical** for a fixed
  seed — same merged snapshot, same per-shard stash occupancies, same
  position maps — which the test suite asserts family by family.

The package splits along that line: :mod:`.planner` owns geometry and
picklable engine recipes, :mod:`.executor` owns the host object and the two
ways of reaching it, and this module's :class:`ShardedRunner` is the facade
that routes a trace through its executor and aggregates results.
Wall-clock speedup from ``num_workers > 1`` tracks physical cores — see
``docs/parallel_sharding.md`` for measured scaling and for when wall-clock
diverges from the modeled ``simulated_time_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.memory.accounting import TrafficSnapshot, merge_snapshots
from repro.experiments.sharded.executor import ProcessShardExecutor, ShardExecutor
from repro.experiments.sharded.planner import ShardPlanner


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard's execution of its slice of the trace."""

    shard_id: int
    num_blocks: int
    num_accesses: int
    snapshot: TrafficSnapshot
    simulated_time_s: float
    stash_occupancy: int


class ShardedRunner:
    """Partition a block namespace round-robin and run one engine per shard.

    Block id ``b`` lives in shard ``b % num_shards`` under the local id
    ``b // num_shards``.  Round-robin (rather than contiguous ranges)
    spreads skewed popularity — embedding hot rows cluster by feature, not
    uniformly — so shards see comparable load under Zipfian traces.

    ``num_workers=None`` runs shards sequentially in this process (engines
    are exposed on :attr:`engines`); ``num_workers=N`` spawns ``N`` worker
    processes that own the engines, with results bit-identical to the
    sequential backend.  Parallel runners hold OS resources (processes,
    queues) — use as a context manager or call :meth:`close`.  The
    aggregates are as of the last :meth:`run_trace` or
    ``runner.executor.refresh_states()`` (call it after serving through the
    executor; the in-process backend also reads its engines live).
    """

    def __init__(
        self,
        num_blocks: int,
        num_shards: int,
        family: str = "laoram",
        superblock_size: int = 4,
        block_size_bytes: int = 128,
        fat_tree: bool = False,
        seed: int = 0,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        self._planner = ShardPlanner(
            num_blocks=num_blocks,
            num_shards=num_shards,
            family=family,
            superblock_size=superblock_size,
            block_size_bytes=block_size_bytes,
            fat_tree=fat_tree,
            seed=seed,
        )
        self.num_blocks = num_blocks
        self.num_shards = num_shards
        self.family = family
        self.num_workers = num_workers
        self._results: list[ShardResult] = []
        if num_workers is None:
            self._executor = ShardExecutor(self._planner, num_workers=num_shards)
        else:
            self._executor = ProcessShardExecutor(
                self._planner, num_workers=num_workers, start_method=start_method
            )
        self._executor.start()
        #: The shard engines, in shard order (in-process backend only, where
        #: host ``s`` holds exactly shard ``s``).
        self.engines: list = [
            host.engines[shard_id]
            for shard_id, host in enumerate(self._executor.hosts)
        ]

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    @property
    def planner(self) -> ShardPlanner:
        """The shard geometry / engine-recipe planner."""
        return self._planner

    @property
    def executor(self) -> ShardExecutor:
        """The executor holding the shard hosts (either backend)."""
        return self._executor

    def close(self) -> None:
        """Release worker processes (no-op in-process)."""
        self._executor.close()

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shard geometry (delegated to the planner)
    # ------------------------------------------------------------------
    def split_trace(self, addresses: Sequence[int] | np.ndarray) -> list[np.ndarray]:
        """Route a global trace into per-shard local-id traces, order kept."""
        return self._planner.split_trace(addresses)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_trace(self, addresses: Sequence[int] | np.ndarray) -> TrafficSnapshot:
        """Execute the trace across every shard and return the merged snapshot.

        Shards share no state, so the run models ``num_shards`` hosts
        working concurrently whichever backend executes it.  Every shard
        replays its slice with its engine's ``run_trace`` (LAORAM shards
        through the lookahead pipeline, the others one oblivious access per
        trace element), so the runner can be handed one trace after another.
        """
        local_traces = self.split_trace(addresses)
        states = self._executor.run_local_traces(local_traces)
        self._results = [
            ShardResult(
                shard_id=shard_id,
                num_blocks=states[shard_id]["num_blocks"],
                num_accesses=int(local_traces[shard_id].size),
                snapshot=states[shard_id]["snapshot"],
                simulated_time_s=states[shard_id]["simulated_time_s"],
                stash_occupancy=states[shard_id]["stash_occupancy"],
            )
            for shard_id in range(self.num_shards)
        ]
        return merge_snapshots(result.snapshot for result in self._results)

    # ------------------------------------------------------------------
    # Aggregation / diagnostics
    # ------------------------------------------------------------------
    @property
    def results(self) -> list[ShardResult]:
        """Per-shard results of the last :meth:`run_trace` call."""
        return list(self._results)

    def _shard_states(self) -> list[dict]:
        """The executor's per-shard state dicts, in shard order."""
        states = self._executor.states
        return [states[s] for s in range(self.num_shards)]

    def merged_snapshot(self) -> TrafficSnapshot:
        """Additive counters summed across shards (peak stash is the max)."""
        return merge_snapshots(s["snapshot"] for s in self._shard_states())

    @property
    def simulated_time_parallel_s(self) -> float:
        """Modeled wall-clock when every shard runs on its own host."""
        return max(s["simulated_time_s"] for s in self._shard_states())

    @property
    def simulated_time_serial_s(self) -> float:
        """Modeled wall-clock when one host serves every shard in turn."""
        return sum(s["simulated_time_s"] for s in self._shard_states())

    @property
    def server_memory_bytes(self) -> int:
        """Total tree footprint across shards."""
        return sum(s["server_memory_bytes"] for s in self._shard_states())

    def total_real_blocks(self) -> int:
        """Blocks held across every shard's tree and stash (invariant check)."""
        return sum(s["total_real_blocks"] for s in self._shard_states())

    def stash_occupancies(self) -> list[int]:
        """Current stash occupancy of every shard, in shard order."""
        return [s["stash_occupancy"] for s in self._shard_states()]

    def position_maps(self) -> list[np.ndarray]:
        """Copy of every shard's position map, in shard order.

        Asked of the hosts on every call (worker processes must still be
        running — call before :meth:`close`).
        """
        return self._executor.position_maps()
