"""Plain-text rendering of experiment results (the harness's 'figures')."""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figure7 import Figure7Result
from repro.experiments.figure8 import Figure8Result
from repro.experiments.figure9 import Figure9Result
from repro.experiments.memory_neutral import MemoryNeutralResult
from repro.experiments.table1 import Table1Row
from repro.experiments.table2 import Table2Result


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_figure7(result: Figure7Result) -> str:
    """Speedup table for one Figure 7 sub-figure."""
    rows = [
        [label, f"{speedup:.2f}x"]
        for label, speedup in result.speedups.items()
    ]
    title = (
        f"Figure {result.subfigure}: speedups over PathORAM "
        f"({result.dataset}, {result.num_blocks} blocks, {result.num_accesses} accesses)"
    )
    return title + "\n" + format_table(["configuration", "speedup"], rows)


def render_figure8(result: Figure8Result) -> str:
    """Final stash occupancy for every Figure 8 configuration."""
    rows = [
        [label, str(result.final_occupancy[label])]
        for label in result.histories
    ]
    title = f"Figure 8: stash occupancy after {result.num_accesses} accesses (no eviction)"
    return title + "\n" + format_table(["configuration", "final stash blocks"], rows)


def render_figure9(result: Figure9Result) -> str:
    """Traffic reduction table (measured vs theoretical bound)."""
    rows = [
        [label, f"{result.reductions[label]:.2f}x", f"{result.theoretical_bounds[label]:.2f}x"]
        for label in result.reductions
    ]
    title = f"Figure 9: traffic reduction vs PathORAM ({result.dataset})"
    return title + "\n" + format_table(["configuration", "measured", "upper bound"], rows)


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Memory-requirement table."""
    body = []
    for row in rows:
        cells = row.formatted()
        body.append(
            [cells["workload"], cells["insecure"], cells["pathoram"], cells["laoram"], cells["fat"]]
        )
    title = "Table I: embedding table memory requirement"
    return title + "\n" + format_table(
        ["workload", "Insecure", "PathORAM", "LAORAM", "Fat"], body
    )


def render_table2(result: Table2Result) -> str:
    """Dummy-reads-per-access table."""
    datasets = list(next(iter(result.dummy_reads.values())).keys())
    body = [
        [config] + [f"{result.dummy_reads[config][dataset]:.3f}" for dataset in datasets]
        for config in result.dummy_reads
    ]
    title = "Table II: average dummy reads per data access"
    return title + "\n" + format_table(["configuration"] + datasets, body)


def render_memory_neutral(result: MemoryNeutralResult) -> str:
    """Summary of the memory-neutral comparison."""
    lines = [
        "Memory-neutral comparison (Section VIII-C)",
        f"  normal tree bucket {result.normal_bucket_size}: "
        f"{result.normal_memory_bytes} bytes, {result.normal_dummy_reads} dummy reads",
        f"  fat tree {result.fat_root_bucket_size}->{result.fat_leaf_bucket_size}: "
        f"{result.fat_memory_bytes} bytes, {result.fat_dummy_reads} dummy reads",
        f"  fat tree memory saving: {result.fat_memory_saving_fraction:.1%}",
        f"  dummy read reduction:   {result.dummy_read_reduction_fraction:.1%}",
    ]
    return "\n".join(lines)
