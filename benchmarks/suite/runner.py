"""Runs one workload for a fixed time and turns its repeats into metrics."""

from __future__ import annotations

import gc
import json
import time
from typing import Optional

from benchmarks.suite.harness import (
    SUITE_DIR,
    Tracer,
    load_spec,
    median,
    peak_rss_mb,
    relative_spread,
)
from benchmarks.suite.workloads import SIZES, WORKLOADS

#: Count-derived metrics that must repeat exactly for a seed on the four
#: single-process workloads (serving coalesces by arrival time, so its stash
#: history is not reproducible to the block).
EXACT_METRICS = (
    "bytes_per_row",
    "path_reads_per_row",
    "sim_us_per_row",
    "oram.stash_peak",
    "memory.client_mem_bytes",
)
EXACT_WORKLOADS = ("train_xlmr", "train_dlrm", "replay_laoram", "replay_recursive")

#: Fewest repeats a run makes however short ``--seconds`` is: a minimum
#: over repeats needs a few of them.
MIN_REPEATS = 3

SPANS_DIR = SUITE_DIR / ".out"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Repeat set-up + timed section for ``seconds``; return the result detail.

    A traced run alternates untraced and traced repeats: end-to-end values
    always come from the untraced ones, span-derived values from the traced
    ones, and the gap between their rates is the tracing overhead.
    """
    sizes = SIZES[name]["smoke" if smoke else "full"]
    workload = WORKLOADS[name](seed, sizes)
    started = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - started

    repeats: list[dict] = []
    last_tracer: Optional[Tracer] = None
    state: Optional[dict] = None
    minimum = 2 * MIN_REPEATS if trace else MIN_REPEATS
    deadline = time.perf_counter() + seconds
    try:
        while len(repeats) < minimum or time.perf_counter() < deadline:
            if state is not None:
                workload.close(state)
                state = None
            # Collect the previous repeat's engine now, not inside a timed lap.
            gc.collect()
            tracer = Tracer() if trace and len(repeats) % 2 else None
            started = time.perf_counter()
            state = workload.setup(tracer)
            setup_s = time.perf_counter() - started
            repeat = workload.run(state, tracer)
            # Set-up phases win over span-derived values of the same name.
            repeat["counts"].update(state["phases"], setup_s=setup_s)
            repeat["traced"] = tracer is not None
            repeats.append(repeat)
            if tracer is not None:
                tracer.unwrap_all()
                last_tracer = tracer
        rss_mb = peak_rss_mb()
        failures = workload.check(state)
    finally:
        if state is not None:
            workload.close(state)

    if name in EXACT_WORKLOADS:
        for metric in EXACT_METRICS:
            if len({repeat["counts"][metric] for repeat in repeats}) != 1:
                failures.append(f"{metric} differs between repeats of one seed")
    if last_tracer is not None:
        last_tracer.dump(SPANS_DIR / f"{name}.spans.json")

    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    values: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    # Untraced last, so that tracing cannot colour anything both kinds of
    # repeat measure; only span-derived keys survive from the traced ones.
    for source in (traced, untraced):
        for key in sorted({key for r in source for key in r["counts"]}):
            samples[key] = [float(r["counts"][key]) for r in source if key in r["counts"]]
            values[key] = median(samples[key])
    if traced:
        values.update(workload.timed_metrics(traced))
        traced_rate = values["rows_per_s"]

    def timed(source: list[dict]) -> dict[str, float]:
        """Quiet-host readings: per-lap minima, and the fastest set-up."""
        return {**workload.timed_metrics(source),
                "setup_s": min(r["counts"]["setup_s"] for r in source)}

    values.update(timed(untraced))
    # What `compare` judges resolution by: the same readings taken from the
    # even and from the odd repeats, which saw the same stretch of host time.
    halves = [timed(half) for half in (untraced[0::2], untraced[1::2])]
    for key in ("setup_s", "rows_per_s"):
        samples[key] = [half[key] for half in halves]
    per_repeat = [workload.timed_metrics([r])["rows_per_s"] for r in untraced]
    attempted = int(sum(r["rows"] for r in repeats))
    failed_rows = int(sum(r["failed_rows"] for r in repeats))
    values.update({
        "peak_rss_mb": rss_mb,
        "datasets.generate_s": generate_s,
        "bench.repeats": len(repeats),
        "bench.repeat_spread": relative_spread(per_repeat),
        "bench.trace_overhead_share": (
            1.0 - traced_rate / values["rows_per_s"] if traced else 0.0),
        "bench.failed_share": failed_rows / attempted,
    })
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "correct": not failures, "failures": failures,
        "attempted": attempted, "failed": failed_rows + len(failures),
        "values": values, "samples": samples,
    }


def report(detail: dict) -> str:
    """Human-readable metric table, the detail line and the contract's last line."""
    spec = load_spec()
    kind = "per_layer" if detail["trace"] else "end_to_end"
    values, samples = detail["values"], detail["samples"]
    lines = [f"== {detail['workload']} seed={detail['seed']} "
             f"repeats={values['bench.repeats']:.0f} "
             f"repeat_spread={values['bench.repeat_spread']:.3f} =="]
    metrics = {}
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        if kind == "end_to_end" and name not in values:
            raise KeyError(f"{detail['workload']} did not produce end-to-end metric {name}")
        # A layer the workload never enters reports 0 for its metrics.
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        spread = samples.get(name, ())
        note = (f"  [min {min(spread):.6g} max {max(spread):.6g} n={len(spread)}]"
                if len(spread) > 1 else "")
        lines.append(f"{name:36s} {value:16.6f} {unit}{note}")
    for failure in detail["failures"]:
        lines.append(f"CHECK FAILED: {failure}")
    lines.append("detail: " + json.dumps(detail))
    lines.append(json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"], "metrics": metrics,
    }))
    return "\n".join(lines)
