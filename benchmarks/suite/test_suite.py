"""Tier-1 tests of the benchmark suite: smoke runs plus the rules it relies on."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.suite.compare import compare_results, verdict
from benchmarks.suite.harness import (
    REPO_ROOT,
    SampleClock,
    Span,
    load_spec,
    outermost,
    percentile,
    pin_to_one_cpu,
    quiet_laps,
    restore_cpus,
    self_times,
    supported_percentile,
)
from benchmarks.suite.runner import MIN_REPEATS, report, run_workload
from benchmarks.suite.workloads import WORKLOADS, window_rates

SPEC = load_spec()
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_details() -> dict[str, dict]:
    """Every workload once at smoke size, traced (covers the untraced path too)."""
    return {
        name: run_workload(name, seed=3, seconds=0.1, trace=True, smoke=True)
        for name in WORKLOAD_NAMES
    }


def test_spec_names_and_shape():
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]
    names = WORKLOAD_NAMES + [
        entry["name"] for kind in ("end_to_end", "per_layer") for entry in SPEC[kind]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(
        entry == {"name": "setup_s", "unit": "s", "better": "lower", "bound": entry["bound"]}
        for entry in SPEC["end_to_end"]
    )


def test_smoke_runs_pass_their_checks(smoke_details):
    for name, detail in smoke_details.items():
        assert detail["correct"], (name, detail["failures"])
        assert detail["attempted"] >= 1 and detail["failed"] == 0
        assert detail["values"]["bench.repeats"] >= 2 * MIN_REPEATS


def test_every_declared_metric_is_emitted(smoke_details):
    for name, detail in smoke_details.items():
        for entry in SPEC["end_to_end"]:
            assert detail["values"][entry["name"]] > 0, (name, entry["name"])
    layer_names = {entry["name"] for entry in SPEC["per_layer"]}
    emitted = set().union(*(detail["values"] for detail in smoke_details.values()))
    assert layer_names <= emitted, sorted(layer_names - emitted)


def test_report_last_line_matches_the_contract(smoke_details):
    detail = smoke_details["replay_laoram"]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        last = json.loads(report({**detail, "trace": trace}).splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert list(last["metrics"]) == [entry["name"] for entry in SPEC[kind]]
        for entry in SPEC[kind]:
            assert set(last["metrics"][entry["name"]]) == {"value", "unit"}
            assert last["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_traced_run_attributes_the_timed_wall(smoke_details):
    for name in ("train_xlmr", "train_dlrm", "replay_laoram"):
        values = smoke_details[name]["values"]
        assert values["bench.attributed_share"] >= 0.9, name
        assert values["oram.engine_s"] > 0, name
    train = smoke_details["train_dlrm"]["values"]
    assert train["embedding.model_s"] > 0 and train["embedding.fetch_calls"] > 0
    serve = smoke_details["serve_zipf"]["values"]
    assert serve["sharded.batches"] > 0 and serve["serving.batch_ids_mean_sat"] > 0


def test_benchmark_command_runs_one_workload_in_its_own_process():
    assert SPEC["command"][0] == "python3"
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "replay_recursive",
         "--seed", "5", "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [entry["name"] for entry in SPEC["end_to_end"]]


def test_percentile_rule_needs_ten_samples_beyond():
    assert supported_percentile(9) == 0.0
    assert supported_percentile(20) == 50.0
    assert supported_percentile(99) == 50.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(999) == 90.0
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(10_000) == 99.9
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert percentile([0.0, 10.0], 90.0) == pytest.approx(9.0)
    assert percentile([], 99.0) == 0.0


def test_span_self_time_arithmetic():
    spans = [
        Span("bench.timed", 0.0, 10.0, -1, "g"),
        Span("embedding.fetch_rows", 1.0, 5.0, 0, "g"),
        Span("oram.access_many", 2.0, 4.0, 1, "g"),
        Span("oram.run_trace", 2.5, 3.5, 2, "g"),
        # Overlapping siblings are covered once; a child is clipped to its parent.
        Span("embedding.model.forward", 6.0, 8.0, 0, "g"),
        Span("embedding.model.backward", 7.0, 11.0, 0, "g"),
    ]
    own = self_times(spans)
    assert own == pytest.approx([2.0, 2.0, 1.0, 1.0, 2.0, 4.0])
    assert [s.name for s in outermost(spans, "oram.")] == ["oram.access_many"]


def test_quiet_laps_take_each_position_from_its_least_disturbed_repeat():
    assert quiet_laps([[1.0, 5.0, 2.0], [3.0, 4.0, 1.5], [1.2, 9.0, 2.5]]) == [1.0, 4.0, 1.5]
    with pytest.raises(ValueError):
        quiet_laps([[1.0, 2.0], [1.0]])


def test_sample_clock_cuts_an_epoch_at_every_sample_pulled():
    class Dataset:
        num_samples = 3

        def sample(self, index):
            return index * 10

    feed = SampleClock(Dataset())
    assert feed.num_samples == 3
    assert [feed.sample(index) for index in range(3)] == [0, 10, 20]
    laps = feed.laps(feed._stamps[0] - 1.0, feed._stamps[-1] + 2.0)
    assert len(laps) == 4 and laps[0] == pytest.approx(1.0) and laps[-1] == pytest.approx(2.0)
    assert sum(laps) == pytest.approx(feed._stamps[-1] - feed._stamps[0] + 3.0)


def test_serving_window_rates():
    assert window_rates([0.0, 0.1, 0.2, 0.3, 0.4, 0.8, 1.2], 2) == pytest.approx(
        [10.0, 10.0, 2.5])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_pin_to_one_cpu_and_back():
    before = os.sched_getaffinity(0)
    allowed = pin_to_one_cpu()
    try:
        assert allowed == before
        assert os.sched_getaffinity(0) == {max(before)}
    finally:
        restore_cpus(allowed)
    assert os.sched_getaffinity(0) == before


def test_compare_verdicts():
    quiet = [100.0, 101.0, 99.0]
    assert verdict(100.0, 100.5, quiet, [100.5, 101.5, 99.5], "lower", 0.10) == "same"
    assert verdict(100.0, 120.0, quiet, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert verdict(100.0, 120.0, quiet, [120.0, 121.0, 119.0], "higher", 0.10) == "better"
    assert verdict(100.0, 80.0, quiet, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    noisy = [100.0, 130.0, 80.0]
    assert verdict(100.0, 115.0, noisy, [110.0, 140.0, 95.0], "lower", 0.10) == "unresolved"
    # Noisy, but every candidate repeat is beyond every baseline repeat.
    assert verdict(100.0, 150.0, noisy, [150.0, 190.0, 140.0], "lower", 0.10) == "worse"
    assert verdict(100.0, 60.0, noisy, [60.0, 70.0, 50.0], "lower", 0.10) == "better"


def test_compare_refuses_other_hosts_and_flags_regressions(smoke_details):
    provenance = {"commit": "a", "python": "3.11", "numpy": "1", "nproc": 2,
                  "seed": 3, "seconds": 0.1, "sizes": {}}
    result = {"provenance": provenance,
              "workloads": {name: {"trace0": detail} for name, detail in smoke_details.items()}}
    lines, status = compare_results(result, result, SPEC)
    assert status == 0 and not any(line.endswith("worse") for line in lines)
    other_host = {**result, "provenance": {**provenance, "nproc": 64}}
    assert compare_results(result, other_host, SPEC)[1] == 2
    slower = json.loads(json.dumps(result))
    detail = slower["workloads"]["replay_laoram"]["trace0"]
    detail["values"]["bytes_per_row"] *= 2
    detail["samples"]["bytes_per_row"] = [2 * v for v in detail["samples"]["bytes_per_row"]]
    lines, status = compare_results(result, slower, SPEC)
    assert status == 1
    assert [line for line in lines if line.endswith("worse")][0].split()[:2] == [
        "replay_laoram", "bytes_per_row"]
