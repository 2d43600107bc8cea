"""The five workloads: what each builds, times, counts and checks.

Every workload drives the program through public entry points only
(``build_engine``, ``SecureEmbeddingStore``, ``ObliviousEmbeddingTrainer``,
``engine.run_trace``, ``ShardedRunner``, ``AsyncShardedService``).  One
*repeat* is a fresh set-up from the workload seed followed by one timed
section cut into short laps; the runner repeats it until the run's time is
spent.  A fresh build per repeat makes every repeat do the same work, which
is what lets the count-derived metrics repeat exactly for a seed and the
lap times be compared position by position (``harness.quiet_laps``).

Sizes are frozen here (``SIZES``) and recorded in every result file; the
``smoke`` column is what the tier-1 test runs.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from contextlib import nullcontext
from typing import Optional

import numpy as np

from repro.datasets.kaggle import (
    NUM_DENSE_FEATURES,
    SyntheticCriteoDataset,
    SyntheticKaggleTrace,
)
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.datasets.zipf import ZipfTraceGenerator
from repro.embedding import (
    DLRMModel,
    EmbeddingTable,
    ObliviousEmbeddingTrainer,
    SecureEmbeddingStore,
    XLMRClassifier,
)
from repro.experiments.configs import build_engine, build_oram_config
from repro.experiments.sharded import ShardedRunner
from repro.serving import AsyncShardedService
from repro.utils.rng import make_rng

from benchmarks.suite.harness import (
    PathClock,
    SampleClock,
    Span,
    Tracer,
    median,
    outermost,
    percentile,
    pin_to_one_cpu,
    quiet_laps,
    restore_cpus,
    self_times,
    supported_percentile,
)

#: Requests slower than this from their due time miss the serving limit.
SLO_MS = 20.0

#: The saturation rate is read at this percentile of the per-round rates of
#: a run (the 2nd percentile of the round times): far enough into the fast
#: tail to sit in the host's quiet moments, with some fifty rounds beyond it
#: at the frozen sizes so that it is a quantile and not an extreme value.
QUIET_ROUND_PCT = 98.0

SIZES: dict[str, dict[str, dict]] = {
    "train_xlmr": {
        "full": dict(rows=1 << 18, dim=64, samples=160, tokens=32, check_rows=1024),
        "smoke": dict(rows=1 << 12, dim=16, samples=12, tokens=16, check_rows=64),
    },
    "train_dlrm": {
        "full": dict(rows=1 << 19, dim=32, samples=512, batch=32, check_rows=1024),
        "smoke": dict(rows=1 << 12, dim=8, samples=32, batch=8, check_rows=64),
    },
    "replay_laoram": {
        "full": dict(blocks=1 << 20, accesses=96_000, lap_paths=64),
        "smoke": dict(blocks=1 << 12, accesses=2_000, lap_paths=64),
    },
    "replay_recursive": {
        "full": dict(blocks=1 << 20, accesses=6_400, lap_paths=64),
        "smoke": dict(blocks=1 << 12, accesses=512, lap_paths=64),
    },
    "serve_zipf": {
        "full": dict(blocks=1 << 20, shards=4, request_ids=16, warmup=200,
                     rate_lo=300.0, rate_hi=600.0, open_s=0.75,
                     clients=8, sat_requests=3_200),
        "smoke": dict(blocks=1 << 12, shards=4, request_ids=8, warmup=20,
                      rate_lo=300.0, rate_hi=600.0, open_s=0.2,
                      clients=4, sat_requests=200),
    },
}


# ----------------------------------------------------------------------
# Metric helpers shared by the workloads
# ----------------------------------------------------------------------
def traffic_metrics(snapshot, simulated_time_s: float,
                    superblock_size: Optional[int] = None) -> dict[str, float]:
    """End-to-end and ``oram.*`` / ``memory.*`` metrics read off the counters."""
    rows = snapshot.logical_accesses
    paths = snapshot.path_reads + snapshot.dummy_reads
    metrics = {
        "bytes_per_row": (snapshot.total_bytes + snapshot.posmap_total_bytes) / rows,
        "path_reads_per_row": snapshot.path_reads / rows,
        "sim_us_per_row": simulated_time_s * 1e6 / rows,
        "oram.stash_peak": snapshot.stash_peak,
        "oram.path_reads": snapshot.path_reads,
        "oram.path_writes": snapshot.path_writes,
        "oram.dummy_reads": snapshot.dummy_reads,
        "oram.dummy_share": snapshot.dummy_reads / paths if paths else 0.0,
        "oram.background_evictions": snapshot.background_evictions,
        "oram.buckets_read": snapshot.buckets_read,
        "oram.buckets_written": snapshot.buckets_written,
        "oram.bytes_read": snapshot.bytes_read,
        "oram.bytes_written": snapshot.bytes_written,
        "oram.posmap_paths_per_row": snapshot.posmap_path_reads / rows,
        "oram.posmap_bytes_per_row": snapshot.posmap_total_bytes / rows,
        "memory.sim_time_s": simulated_time_s,
    }
    if superblock_size:
        metrics["core.paths_per_bin"] = snapshot.path_reads / (rows / superblock_size)
    return metrics


def engine_metrics(engine) -> dict[str, float]:
    """Counter metrics plus the state only an in-process engine exposes."""
    metrics = traffic_metrics(
        engine.statistics,
        engine.simulated_time_s,
        getattr(engine, "superblock_size", None),
    )
    metrics["memory.client_mem_bytes"] = engine.client_memory_bytes()
    metrics["oram.server_mem_bytes"] = engine.server_memory_bytes
    metrics["oram.stash_final"] = engine.stash_occupancy
    metrics["core.plan_installed"] = float(getattr(engine, "plan", None) is not None)
    return metrics


def span_metrics(spans: list[Span], paths: float) -> dict[str, float]:
    """Per-layer times and counts of one timed section, from its spans.

    ``bench.attributed_share`` is the part of the timed wall that named
    layer spans cover (everything but the root's self time); ``paths`` is
    the section's real plus dummy path reads.
    """
    own = self_times(spans)

    def total_self(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def calls(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    fetches, updates = calls("embedding.fetch_rows"), calls("embedding.update_rows")
    store_calls = len(fetches) + len(updates)
    engine_s = sum(s.duration for s in outermost(spans, "oram."))
    root_wall = sum(s.duration for s in calls("bench.timed"))
    return {
        "core.preprocess_s": sum(s.duration for s in calls("core.preprocess")),
        "core.preprocess_calls": len(calls("core.preprocess")),
        "core.placement_s": sum(s.duration for s in calls("core.placement")),
        "oram.engine_s": engine_s,
        "oram.engine_us_per_path": engine_s * 1e6 / paths if paths else 0.0,
        "embedding.fetch_self_s": total_self("embedding.fetch_rows"),
        "embedding.update_self_s": total_self("embedding.update_rows"),
        "embedding.fetch_calls": len(fetches),
        "embedding.update_calls": len(updates),
        "embedding.rows_per_call": (
            sum(s.count for s in fetches + updates) / store_calls if store_calls else 0.0
        ),
        "embedding.model_s": sum(
            s.duration for s in outermost(spans, "embedding.model.")),
        "embedding.optim_s": sum(s.duration for s in calls("embedding.optim")),
        "embedding.trainer_self_s": total_self("embedding.trainer"),
        "bench.attributed_share": (
            1.0 - total_self("bench.timed") / root_wall if root_wall else 0.0),
    }


def trace_engine(tracer: Tracer, engine) -> None:
    """Span every public engine entry point the workloads reach."""
    for method in ("access_many", "write_many", "run_trace"):
        tracer.wrap(engine, method, f"oram.{method}")
    if hasattr(engine, "preprocess"):
        tracer.wrap(engine, "preprocess", "core.preprocess")
        tracer.wrap(engine, "apply_initial_placement", "core.placement")


def timed_root(tracer: Optional[Tracer]):
    """The suite's own root span around a timed call (no-op when untraced)."""
    return tracer.span("bench.timed") if tracer is not None else nullcontext()


class Workload:
    """One benchmark workload; subclasses fill in the steps."""

    name = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes

    def generate(self) -> None:
        """Build the seeded inputs (not part of ``setup_s``)."""
        raise NotImplementedError

    def setup(self, tracer: Optional[Tracer]) -> dict:
        """Build the system under test; returns the state ``run`` uses.

        ``state["phases"]`` maps per-layer set-up metric names to seconds.
        """
        raise NotImplementedError

    def run(self, state: dict, tracer: Optional[Tracer]) -> dict:
        """Timed section of one repeat.

        Returns ``rows`` (row accesses attempted), ``failed_rows``,
        ``laps`` (seconds, one per position) and ``counts`` (the metrics
        read off counters, and off spans when traced).
        """
        raise NotImplementedError

    def timed_metrics(self, repeats: list[dict]) -> dict[str, float]:
        """Wall-clock metrics of the run, from the laps of ``repeats``."""
        best = quiet_laps([repeat["laps"] for repeat in repeats])
        return self._lap_metrics(best, repeats[0]["rows"])

    def _lap_metrics(self, best: list[float], rows: int) -> dict[str, float]:
        raise NotImplementedError

    def check(self, state: dict) -> list[str]:
        """Output checks on the last repeat's state; returns failure messages."""
        raise NotImplementedError

    def close(self, state: dict) -> None:
        """Release what ``setup`` acquired."""


def conservation_failures(holder) -> list[str]:
    """Every block the engine (or sharded runner) was given is still in it."""
    held = holder.total_real_blocks()
    if held != holder.num_blocks:
        return [f"{held} real blocks, expected {holder.num_blocks}"]
    return []


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    """Shared shape of the two training workloads: store + trainer + one epoch.

    The epoch is cut into one lap per training sample by the input feed
    (``SampleClock``), so nothing in the program is wrapped while it is
    timed.
    """

    label = "Fat/S8"

    def _oram_config(self):
        sizes = self.sizes
        return build_oram_config(
            sizes["rows"], block_size_bytes=4 * sizes["dim"], seed=self.seed
        )

    def _make_model(self):
        raise NotImplementedError

    def _epoch(self, trainer, model, dataset):
        raise NotImplementedError

    def _build(self, label: str, fast: bool, tracer: Optional[Tracer]) -> dict:
        started = time.perf_counter()
        engine = build_engine(label, self._oram_config(), fast=fast)
        built = time.perf_counter()
        if tracer is not None:
            tracer.wrap(engine, "load_payloads", "setup.load_payloads")
        store = SecureEmbeddingStore(engine, self.table)
        stored = time.perf_counter()
        phases = {"oram.build_s": built - started,
                  "embedding.store_build_s": stored - built}
        model = self._make_model()
        trainer = ObliviousEmbeddingTrainer(store)
        if tracer is not None:
            phases["oram.load_payloads_s"] = sum(
                s.duration for s in tracer.spans if s.name == "setup.load_payloads")
            trace_engine(tracer, engine)
            for method in ("fetch_rows", "update_rows"):
                tracer.wrap(store, method, f"embedding.{method}",
                            count=lambda args, _result: len(args[0]))
            for method in ("forward", "backward", "train_step"):
                if hasattr(model, method):
                    tracer.wrap(model, method, f"embedding.model.{method}")
            tracer.wrap(trainer.optimizer, "update", "embedding.optim")
            for method in ("train_xlmr_epoch", "train_dlrm_epoch"):
                tracer.wrap(trainer, method, "embedding.trainer")
        return {
            "engine": engine, "store": store, "model": model, "trainer": trainer,
            "phases": phases,
        }

    def setup(self, tracer):
        return self._build(self.label, True, tracer)

    def run(self, state, tracer):
        feed = SampleClock(self.dataset)
        engine = state["engine"]
        started = time.perf_counter()
        with timed_root(tracer):
            state["report"] = self._epoch(state["trainer"], state["model"], feed)
        ended = time.perf_counter()
        counts = engine_metrics(engine)
        if tracer is not None:
            counts.update(span_metrics(
                tracer.spans, counts["oram.path_reads"] + counts["oram.dummy_reads"]))
        return {
            "rows": engine.statistics.logical_accesses, "failed_rows": 0,
            "laps": feed.laps(started, ended), "counts": counts,
        }

    def _lap_metrics(self, best, rows):
        wall = sum(best)
        return {
            "rows_per_s": rows / wall,
            "embedding.samples_per_s": self.sizes["samples"] / wall,
        }


class TrainXLMR(TrainWorkload):
    """XLM-R-style epoch: 2 x tokens row accesses around a cheap train step."""

    name = "train_xlmr"

    def generate(self):
        sizes = self.sizes
        self.dataset = SyntheticXNLIDataset(
            sizes["samples"], vocabulary_size=sizes["rows"],
            sequence_length=sizes["tokens"], exponent=1.2, seed=self.seed,
        )
        self.table = EmbeddingTable(sizes["rows"], sizes["dim"], seed=self.seed)

    def _make_model(self):
        return XLMRClassifier(self.sizes["dim"], seed=self.seed)

    def _epoch(self, trainer, model, dataset):
        return trainer.train_xlmr_epoch(model, dataset)

    def check(self, state):
        """Differential: the same epoch on the insecure engine must agree bit for bit."""
        failures = conservation_failures(state["engine"])
        reference = self._build("Insecure", False, None)
        expected = self._epoch(reference["trainer"], reference["model"], self.dataset)
        report = state["report"]
        if (report.mean_loss, report.accuracy) != (expected.mean_loss, expected.accuracy):
            failures.append(
                f"loss/accuracy {report.mean_loss!r}/{report.accuracy!r} differ from "
                f"insecure {expected.mean_loss!r}/{expected.accuracy!r}"
            )
        touched = np.unique(self.dataset.tokens)
        sample = make_rng(self.seed).choice(
            touched, size=min(self.sizes["check_rows"], touched.size), replace=False)
        if not np.array_equal(state["store"].fetch_rows(sample),
                              reference["store"].fetch_rows(sample)):
            failures.append("trained rows differ from the insecure reference")
        return failures


class TrainDLRM(TrainWorkload):
    """DLRM epoch: one protected row per sample, model-bound."""

    name = "train_dlrm"

    def generate(self):
        sizes = self.sizes
        self.dataset = SyntheticCriteoDataset(
            sizes["samples"], largest_table_rows=sizes["rows"], seed=self.seed)
        self.table = EmbeddingTable(sizes["rows"], sizes["dim"], seed=self.seed)

    def _make_model(self):
        protected = self.dataset.largest_table_index
        small = tuple(size for index, size in enumerate(self.dataset.table_sizes)
                      if index != protected)
        return DLRMModel(NUM_DENSE_FEATURES, small,
                         embedding_dim=self.sizes["dim"], seed=self.seed)

    def _epoch(self, trainer, model, dataset):
        return trainer.train_dlrm_epoch(model, dataset, batch_size=self.sizes["batch"])

    def check(self, state):
        """Access count, untouched rows intact, sentinel write/read-back."""
        engine, store, sizes = state["engine"], state["store"], self.sizes
        failures = conservation_failures(engine)
        if state["report"].embedding_accesses != 2 * sizes["samples"]:
            failures.append(
                f"{state['report'].embedding_accesses} embedding accesses, "
                f"expected {2 * sizes['samples']}")
        rng = make_rng(self.seed)
        touched = self.dataset.categorical[:, self.dataset.largest_table_index]
        untouched = np.setdiff1d(np.arange(sizes["rows"]), touched)
        probe = rng.choice(untouched, size=sizes["check_rows"], replace=False)
        if not np.array_equal(store.fetch_rows(probe), self.table.weights[probe]):
            failures.append("never-touched rows differ from the initial table")
        sentinel_ids = rng.choice(sizes["rows"], size=sizes["check_rows"], replace=False)
        sentinels = rng.random((sentinel_ids.size, sizes["dim"]), dtype=np.float32)
        store.update_rows(sentinel_ids, sentinels)
        if not np.array_equal(store.fetch_rows(sentinel_ids), sentinels):
            failures.append("sentinel rows did not read back")
        return failures + conservation_failures(engine)


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
class ReplayWorkload(Workload):
    """Bare engine over a Kaggle-like trace, no embedding or serving layer.

    One ``run_trace`` call per repeat, cut into laps of ``lap_paths`` path
    fetches by the bus observer the engine is built with (``PathClock``).
    """

    label = ""

    def generate(self):
        sizes = self.sizes
        self.trace = SyntheticKaggleTrace(
            sizes["blocks"], seed=self.seed).generate(sizes["accesses"]).addresses

    def _engine(self, **options):
        """A fresh engine and the clock observing its bus."""
        clock = PathClock(self.sizes["lap_paths"])
        engine = build_engine(
            self.label, build_oram_config(self.sizes["blocks"], seed=self.seed),
            fast=True, observer=clock, **options)
        return engine, clock

    def _replay(self, engine, clock, tracer=None) -> list[float]:
        started = time.perf_counter()
        with timed_root(tracer):
            engine.run_trace(self.trace)
        return clock.laps(started, time.perf_counter())

    def run(self, state, tracer):
        engine = state["engine"]
        laps = self._replay(engine, state["clock"], tracer)
        counts = engine_metrics(engine)
        if tracer is not None:
            counts.update(span_metrics(
                tracer.spans, counts["oram.path_reads"] + counts["oram.dummy_reads"]))
        return {"rows": int(self.trace.size), "failed_rows": 0,
                "laps": laps, "counts": counts}

    def check(self, state):
        engine = state["engine"]
        failures = conservation_failures(engine)
        if engine.statistics.logical_accesses != self.trace.size:
            failures.append("logical accesses differ from the trace length")
        return failures


class ReplayLAORAM(ReplayWorkload):
    """Fused lookahead path; trusted set-up and preprocessing timed apart."""

    name = "replay_laoram"
    label = "Fat/S4"

    def setup(self, tracer):
        started = time.perf_counter()
        engine, clock = self._engine()
        built = time.perf_counter()
        # Phase probe: run_trace repeats both steps internally (they end up
        # in its first lap), so timing them once here, where both are legal
        # before the first access, puts trusted set-up into setup_s and
        # gives the two layer metrics (phases take precedence over the
        # spans of the same name inside run_trace, which only feed
        # attribution).
        plan = engine.preprocess(self.trace)
        planned = time.perf_counter()
        engine.apply_initial_placement(plan)
        placed = time.perf_counter()
        if tracer is not None:
            trace_engine(tracer, engine)
        return {
            "engine": engine, "clock": clock,
            "phases": {"oram.build_s": built - started,
                       "core.preprocess_s": planned - built,
                       "core.placement_s": placed - planned},
        }

    def _lap_metrics(self, best, rows):
        # Steady state: everything after the first path fetch.
        return {"rows_per_s": rows / sum(best[1:])}


class ReplayRecursive(ReplayWorkload):
    """Generic per-access path plus recursion walks; dense twin for the ratio."""

    name = "replay_recursive"
    label = "PathORAM"

    def setup(self, tracer):
        started = time.perf_counter()
        engine, clock = self._engine(recursive_posmap=True)
        built = time.perf_counter()
        if tracer is not None:
            trace_engine(tracer, engine)
        return {"engine": engine, "clock": clock,
                "phases": {"oram.build_s": built - started}}

    def run(self, state, tracer):
        record = super().run(state, tracer)
        if tracer is not None:
            # The dense twin rides on traced repeats only, so the untraced
            # ones spend their time on the engine the workload is about.
            record["dense_laps"] = self._replay(*self._engine())
        return record

    def timed_metrics(self, repeats):
        metrics = super().timed_metrics(repeats)
        if all("dense_laps" in repeat for repeat in repeats):
            dense_s = sum(quiet_laps([repeat["dense_laps"] for repeat in repeats]))
            metrics["oram.dense_rows_per_s"] = repeats[0]["rows"] / dense_s
            metrics["oram.recursion_slowdown"] = (
                metrics["oram.dense_rows_per_s"] / metrics["rows_per_s"])
        return metrics

    def _lap_metrics(self, best, rows):
        return {"rows_per_s": rows / sum(best)}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Phase:
    """Requests of one serving phase and what happened to them."""

    def __init__(self, ids: np.ndarray, due_s: Optional[np.ndarray] = None):
        self.ids = ids.tolist()
        self.due_s = due_s
        # Indexed by request, so open-loop latencies stay in due order.
        self.latency_s: list[Optional[float]] = [None] * len(self.ids)
        self.due_at: list[float] = [0.0] * len(self.ids)
        self.done_at: list[float] = []
        self.lag_s: list[float] = []
        self.errors = 0
        self.first_error = ""
        self.backlog_end = 0

    @property
    def rows(self) -> int:
        return sum(len(request) for request in self.ids)

    @property
    def served_ms(self) -> list[float]:
        return [latency * 1e3 for latency in self.latency_s if latency is not None]


def window_rates(done_at: list[float], window: int) -> list[float]:
    """Completions per second over each run of ``window`` consecutive completions."""
    done = sorted(done_at)
    return [window / (done[last] - done[last - window])
            for last in range(window, len(done), window)]


class ServeZipf(Workload):
    """Async front-end over one shard worker: open loop at two rates, then saturation.

    Open loop (Poisson arrivals on an absolute schedule, latency from the
    due time) because lookup clients are independent; closed loop (each
    client sends its next request when the last completes) for a saturation
    throughput that repeats.

    Generator and worker run on one CPU (``pin_to_one_cpu`` before the worker
    starts).  In the closed loop they take turns, so one core holds both,
    and a request then never waits for an idle virtual CPU to be woken: on
    this 2-core host, repeats taken in turn read 51 000 rows/s pinned
    (quartiles 49 700 and 54 000 over 60 repeats) against 44 100 left to the
    scheduler (41 200 and 49 600 over 30), and the slow repeats, in which
    every round was 1.5 times slower, went away.  The open loop offers at
    most a third of the core, and its latencies are diagnostics here.
    Parallel scaling is not measured.

    Coalescing depends on arrival times, so repeats do not do identical
    work and laps cannot be matched by position.  The quiet-host reading of
    the saturation rate is taken over the rounds of the closed loop instead
    (``clients`` consecutive completions: the clients' requests coalesce
    into one batch and complete together), pooled over the repeats of the
    run, at ``QUIET_ROUND_PCT``.  A round is a few milliseconds, short
    enough to fit between the host's stalls, and a high quantile of
    thousands of rounds repeats where the single best window does not.
    """

    name = "serve_zipf"

    def generate(self):
        sizes = self.sizes
        per_request = sizes["request_ids"]
        counts = {
            "warm": sizes["warmup"],
            "lo": int(sizes["rate_lo"] * sizes["open_s"]),
            "hi": int(sizes["rate_hi"] * sizes["open_s"]),
            "sat": sizes["sat_requests"],
        }
        ids = ZipfTraceGenerator(sizes["blocks"], exponent=1.1, seed=self.seed).generate(
            sum(counts.values()) * per_request).addresses.reshape(-1, per_request)
        gaps = make_rng(self.seed + 1)
        self.requests: dict[str, tuple[np.ndarray, Optional[np.ndarray]]] = {}
        offset = 0
        for phase, count in counts.items():
            rate = sizes.get(f"rate_{phase}")
            due = gaps.exponential(1.0 / rate, size=count).cumsum() if rate else None
            self.requests[phase] = (ids[offset:offset + count], due)
            offset += count

    def setup(self, tracer):
        sizes = self.sizes
        cpus = pin_to_one_cpu()
        started = time.perf_counter()
        runner = ShardedRunner(sizes["blocks"], num_shards=sizes["shards"],
                               family="pathoram", num_workers=1, seed=self.seed)
        ready = time.perf_counter()
        if tracer is not None:
            tracer.wrap(runner.planner, "split_ids", "sharded.split_ids")
            tracer.wrap(runner.executor, "access_on_worker", "sharded.roundtrip",
                        count=lambda _args, served: served)
        return {"runner": runner, "cpus": cpus,
                "phases": {"sharded.start_s": ready - started}}

    def close(self, state):
        state["runner"].close()
        restore_cpus(state["cpus"])

    # -- load generators -------------------------------------------------
    @staticmethod
    async def _request(service, phase: _Phase, index: int, due_at: float) -> None:
        phase.due_at[index] = due_at
        try:
            await service.submit(phase.ids[index])
        except Exception as error:  # a failed request is counted, not fatal to the run
            phase.errors += 1
            phase.first_error = phase.first_error or repr(error)
            return
        done = time.perf_counter()
        phase.done_at.append(done)
        phase.latency_s[index] = done - due_at

    async def _open_loop(self, service, phase: _Phase) -> None:
        """Submit on the absolute schedule whether or not replies came back."""
        tasks = []
        origin = time.perf_counter()
        for index, offset in enumerate(phase.due_s.tolist()):
            due_at = origin + offset
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lag_s.append(max(0.0, time.perf_counter() - due_at))
            tasks.append(asyncio.create_task(self._request(service, phase, index, due_at)))
        phase.backlog_end = sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)

    async def _closed_loop(self, service, phase: _Phase, clients: int) -> None:
        """``clients`` callers, each waiting for its reply before sending again."""
        async def client(first: int) -> None:
            for index in range(first, len(phase.ids), clients):
                await self._request(service, phase, index, time.perf_counter())

        await asyncio.gather(*(client(first) for first in range(clients)))

    async def _serve(self, runner, tracer) -> dict[str, _Phase]:
        phases = {name: _Phase(ids, due) for name, (ids, due) in self.requests.items()}
        async with AsyncShardedService(runner) as service:
            for name, phase in phases.items():
                if tracer is not None:
                    tracer.group = name
                if name == "warm":
                    await self._closed_loop(service, phase, 1)
                elif name == "sat":
                    await self._closed_loop(service, phase, self.sizes["clients"])
                else:
                    await self._open_loop(service, phase)
        return phases

    # -- the timed section -----------------------------------------------
    def run(self, state, tracer):
        runner = state["runner"]
        phases = asyncio.run(self._serve(runner, tracer))
        runner.executor.refresh_states()
        snapshot = runner.merged_snapshot()
        state["snapshot"] = snapshot
        state["submitted_rows"] = sum(phase.rows for phase in phases.values())
        state["errors"] = sum(phase.errors for phase in phases.values())
        state["first_error"] = next(
            (phase.first_error for phase in phases.values() if phase.first_error), "")

        lo, hi = phases["lo"], phases["hi"]
        counts = traffic_metrics(snapshot, runner.simulated_time_serial_s)
        counts.update({
            "oram.server_mem_bytes": runner.server_memory_bytes,
            "oram.stash_final": max(runner.stash_occupancies()),
            "serving.requests": sum(len(phase.ids) for phase in phases.values()),
            "serving.errors": state["errors"],
            "serving.backlog_end": max(lo.backlog_end, hi.backlog_end),
        })
        if tracer is not None:
            counts.update(self._span_metrics(tracer.spans, phases))
        return {
            "rows": state["submitted_rows"],
            "failed_rows": sum(len(phase.ids[0]) * phase.errors for phase in phases.values()),
            "counts": counts,
            "traffic": {name: phases[name] for name in ("lo", "hi", "sat")},
        }

    def timed_metrics(self, repeats):
        sizes = self.sizes

        def pooled(tag: str, field: str) -> list[float]:
            return [value for repeat in repeats for value in getattr(repeat["traffic"][tag], field)]

        metrics = {
            "rows_per_s": sizes["request_ids"] * percentile(
                [rate for repeat in repeats for rate in window_rates(
                    repeat["traffic"]["sat"].done_at, sizes["clients"])],
                QUIET_ROUND_PCT),
            "serving.gen_lag_ms_p99": percentile(
                pooled("lo", "lag_s") + pooled("hi", "lag_s"), 99.0) * 1e3,
        }
        for tag in ("lo", "hi"):
            ms = pooled(tag, "served_ms")
            failed = sum(repeat["traffic"][tag].errors for repeat in repeats)
            missed = sum(1 for value in ms if value > SLO_MS) + failed
            metrics.update({
                f"serving.p50_ms_{tag}": median(ms),
                f"serving.p90_ms_{tag}": percentile(ms, 90.0),
                f"serving.p99_ms_{tag}": percentile(ms, 99.0),
                f"serving.max_ms_{tag}": max(ms, default=0.0),
                f"serving.tail_pct_{tag}": supported_percentile(len(ms)),
                f"serving.slo_miss_share_{tag}": missed / (len(ms) + failed),
            })
        return metrics

    @staticmethod
    def _span_metrics(spans: list[Span], phases: dict[str, _Phase]) -> dict[str, float]:
        """Dispatcher and round-trip metrics per phase, from the spans."""
        metrics: dict[str, float] = {}
        trips_all = [s for s in spans if s.name == "sharded.roundtrip"]
        metrics["sharded.batches"] = sum(1 for s in trips_all if s.group != "warm")
        metrics["sharded.split_s"] = sum(
            s.duration for s in spans if s.name == "sharded.split_ids" and s.group != "warm")
        for tag in ("lo", "hi", "sat"):
            phase = phases[tag]
            trips = sorted((s for s in trips_all if s.group == tag), key=lambda s: s.end)
            ids = sum(s.count for s in trips)
            metrics[f"sharded.roundtrip_ms_p50_{tag}"] = (
                median([s.duration for s in trips]) * 1e3)
            metrics[f"sharded.roundtrip_us_per_id_{tag}"] = (
                sum(s.duration for s in trips) * 1e6 / ids if ids else 0.0)
            metrics[f"serving.batch_ids_mean_{tag}"] = ids / len(trips) if trips else 0.0
            if tag == "sat":
                continue
            # Queue wait: the request's latency minus the last round trip that
            # ended before it completed, i.e. the time it was not being served.
            ends = [s.end for s in trips]
            waits = []
            for latency, due in zip(phase.latency_s, phase.due_at):
                if latency is None:
                    continue
                last = bisect.bisect_right(ends, due + latency) - 1
                served = trips[last].duration if last >= 0 else 0.0
                waits.append(max(0.0, latency - served))
            metrics[f"serving.queue_wait_ms_p50_{tag}"] = median(waits) * 1e3
        return metrics

    def check(self, state):
        runner = state["runner"]
        failures = conservation_failures(runner)
        served = state["snapshot"].logical_accesses
        if served != state["submitted_rows"]:
            failures.append(f"{served} ids served, {state['submitted_rows']} submitted")
        if state["errors"]:
            failures.append(
                f"{state['errors']} requests failed, the first with {state['first_error']}")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrainXLMR, TrainDLRM, ReplayLAORAM, ReplayRecursive, ServeZipf)
}
