"""Measurement plumbing shared by every workload.

Four things live here: the lap timing that makes wall times repeat on a
shared host (:func:`quiet_laps`, :class:`LapClock`), the span recorder
used by traced runs (:class:`Tracer`), the small statistics the suite
reports (median, percentile rule, spread), and the loader for the metric
contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare_process() -> None:
    """Pin BLAS to one thread and make ``repro`` importable from ``src/``.

    Must run before numpy is first imported for the pin to take effect, so
    the CLI calls it before importing any workload code.
    """
    for var in _BLAS_ENV_VARS:
        os.environ[var] = "1"
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def pin_to_one_cpu() -> Optional[set[int]]:
    """Restrict the calling thread, and what it starts from now on, to one CPU.

    Returns the affinity to give back to :func:`restore_cpus` (``None`` where
    the platform has no affinity call).  Threads and processes inherit the
    affinity of the thread that starts them, so calling this before a worker
    pool is built keeps the whole workload on the highest CPU allowed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def restore_cpus(allowed: Optional[set[int]]) -> None:
    """Undo :func:`pin_to_one_cpu` for the calling thread."""
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


def load_spec() -> dict:
    """The metric contract (``BENCHMARK.json`` at the repository root)."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a layer the workload never entered)."""
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0.0 when empty)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


#: Tail percentiles the suite is willing to quote, lowest first, each with
#: the number of samples of which one lies beyond it.
TAIL_PERCENTILES = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000))


def supported_percentile(sample_count: int) -> float:
    """Highest percentile with at least ten samples beyond it (0.0 if none).

    A p99 read off 300 samples rests on three of them; the rule keeps the
    suite from quoting a tail the sample cannot support.
    """
    supported = 0.0
    for pct, one_in in TAIL_PERCENTILES:
        if sample_count >= 10 * one_in:
            supported = pct
    return supported


def relative_spread(values: Sequence[float]) -> float:
    """(max - min) / median of a sample; 0.0 when it has fewer than two values."""
    if len(values) < 2:
        return 0.0
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Quiet-host timing
# ----------------------------------------------------------------------
def quiet_laps(repeats: Sequence[Sequence[float]]) -> list[float]:
    """Per-position minimum over repeats that did identical work.

    The sandbox this suite was written on slows by 10-30 % for seconds at a
    time and stalls for milliseconds far more often (no steal time is
    reported; CPU time moves with wall time), so the wall time of a whole
    timed section differs between identical runs by more than any sensible
    regression bound.  Every repeat of a workload rebuilds the system from
    the same seed and therefore does the same work lap for lap; the fastest
    reading of each lap is the one the host disturbed least, and the laps
    are short (milliseconds) so that each has several chances, spread over
    the whole run, to land in a quiet moment.  The sum of these minima is
    the timed section's wall time on a quiet host.
    """
    lengths = {len(laps) for laps in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats disagree on the number of laps: {sorted(lengths)}")
    return [min(position) for position in zip(*repeats)]


class LapClock:
    """Clock readings taken from inside a timed section, turned into laps."""

    def __init__(self) -> None:
        self._stamps: list[float] = []

    def laps(self, start: float, end: float) -> list[float]:
        """Lap times from ``start`` over every reading to ``end``; they sum to ``end - start``."""
        edges = [start, *self._stamps, end]
        return [later - earlier for earlier, later in zip(edges, edges[1:])]


class SampleClock(LapClock):
    """Dataset view that reads the clock each time the trainer pulls a sample.

    The trainers call ``dataset.sample(index)`` once per training sample,
    so the input feed can split an epoch into per-sample laps without
    touching the program: the time before the first sample (plan
    installation), then one lap per sample, the last one running to the
    end of the epoch.
    """

    def __init__(self, dataset) -> None:
        super().__init__()
        self._dataset = dataset

    def __getattr__(self, name: str):
        return getattr(self._dataset, name)

    def sample(self, index: int):
        self._stamps.append(time.perf_counter())
        return self._dataset.sample(index)


class PathClock(LapClock):
    """Bus observer that reads the clock every ``every`` path fetches.

    Engines report each path they fetch to the ``observer`` they were built
    with (the adversary's view of the memory bus), so an observer can split
    one ``run_trace`` call into laps of equal work from outside the fused
    drivers.  The first lap runs from the call to the first fetch: on
    LAORAM it holds preprocessing and initial placement.
    """

    def __init__(self, every: int) -> None:
        super().__init__()
        self._every = every
        self._fetches = 0

    def observe_path(self, leaf: int, dummy: bool = False) -> None:
        if self._fetches % self._every == 0:
            self._stamps.append(time.perf_counter())
        self._fetches += 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One traced call: what ran, when, under which span, for which group."""

    name: str
    start: float
    end: float
    parent: int
    group: str
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around public bound methods of objects the suite built.

    Wrapping sets an instance attribute that shadows the class's method, so
    calls the program makes on ``self`` are seen too; nothing under
    ``src/`` is edited and :meth:`unwrap_all` restores every object.  The
    current span is tracked per thread: a call made on a worker thread (the
    service's ``to_thread`` hop) starts a new root.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: list[tuple[object, str]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = getattr(self._local, "current", -1)
        record = Span(name, time.perf_counter(), 0.0, parent, self.group)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        self._local.current = index
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._local.current = parent

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        count: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``obj.method(...)`` call.

        ``count(args, result)`` attaches a work count (rows, ids) to the span.
        """
        if method.startswith("_"):
            raise ValueError(f"refusing to wrap private name {method!r}")
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record.count = count(args, result)
                return result

        setattr(obj, method, traced)
        self._wrapped.append((obj, method))

    def unwrap_all(self) -> None:
        """Remove every shadowing attribute :meth:`wrap` installed."""
        for obj, method in self._wrapped:
            delattr(obj, method)
        self._wrapped.clear()

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON (name, start, end, parent, group)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.start, s.end, s.parent, s.group, s.count] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "group", "count"],
                       "spans": rows}, handle)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span self time: duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the self times of a tree sum to its root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        result.append(span.duration - covered)
    return result


def outermost(spans: Sequence[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` with no ancestor of the same prefix.

    Used for a layer's busy time: ``access_many`` delegating to
    ``run_trace`` must count once.
    """
    selected = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        ancestor = span.parent
        while ancestor >= 0 and not spans[ancestor].name.startswith(prefix):
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            selected.append(span)
    return selected
