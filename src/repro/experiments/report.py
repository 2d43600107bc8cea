"""Plain-text rendering of experiment results (the harness's 'figures').

Each figure and table renders a projection of a :class:`ReplayMatrix`.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.matrix import FIGURE9_SUBFIGURE, ReplayMatrix
from repro.experiments.table1 import Table1Row
from repro.utils.units import format_bytes


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


def render_figure7(matrix: ReplayMatrix, subfigure: str = "7e") -> str:
    """Speedup table for one Figure 7 sub-figure."""
    rows = [[label, f"{speedup:.2f}x"] for label, speedup in matrix.figure7(subfigure).items()]
    dataset, num_blocks = matrix.workload(subfigure)
    title = (
        f"Figure {subfigure}: speedups over PathORAM "
        f"({dataset}, {num_blocks} blocks, {matrix.scale.num_accesses} accesses)"
    )
    return title + "\n" + format_table(["configuration", "speedup"], rows)


def render_figure8(matrix: ReplayMatrix) -> str:
    """Final stash occupancy for every Figure 8 configuration."""
    rows = [
        [label, str(history[-1] if history else 0)]
        for label, history in matrix.figure8().items()
    ]
    title = f"Figure 8: stash occupancy after {matrix.scale.num_accesses} accesses (no eviction)"
    return title + "\n" + format_table(["configuration", "final stash blocks"], rows)


def render_figure9(matrix: ReplayMatrix) -> str:
    """Traffic reduction table (measured vs theoretical bound)."""
    rows = [
        [label, f"{reduction:.2f}x", f"{bound:.2f}x"]
        for label, (reduction, bound) in matrix.figure9().items()
    ]
    title = f"Figure 9: traffic reduction vs PathORAM ({matrix.workload(FIGURE9_SUBFIGURE)[0]})"
    return title + "\n" + format_table(["configuration", "measured", "upper bound"], rows)


def render_recursion(matrix: ReplayMatrix) -> str:
    """Recursive position map against the dense one, per configuration."""
    body = [
        [
            label,
            *(str(n) for n in (row.levels, row.label_bytes, row.block_bytes, row.top_map_bytes)),
            f"{row.walks_per_access:.3f}",
            f"{row.posmap_traffic_share:.1%}",
            f"{row.client_memory_reduction:.1f}x",
            "yes" if row.bit_identical else "NO",
        ]
        for label, row in matrix.recursion().items()
    ]
    title = (
        f"Recursive position map: walks per access "
        f"(zipf, {matrix.scale.num_blocks} blocks, {matrix.scale.num_accesses} accesses)"
    )
    return title + "\n" + format_table(
        [
            "configuration", "levels", "label B", "block B", "top map B", "walks/access",
            "posmap/main traffic", "client-mem reduction", "bit-identical",
        ],
        body,
    )


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Memory-requirement table."""
    body = [
        [row.workload]
        + [
            format_bytes(size)
            for size in (row.insecure_bytes, row.pathoram_bytes, row.laoram_bytes, row.fat_bytes)
        ]
        for row in rows
    ]
    title = "Table I: embedding table memory requirement"
    return title + "\n" + format_table(
        ["workload", "Insecure", "PathORAM", "LAORAM", "Fat"], body
    )


def render_table2(matrix: ReplayMatrix) -> str:
    """Dummy-reads-per-access table."""
    table = matrix.table2()
    body = [
        [config] + [f"{value:.3f}" for value in row.values()] for config, row in table.items()
    ]
    title = "Table II: average dummy reads per data access"
    return title + "\n" + format_table(["configuration", *next(iter(table.values()))], body)


def render_memory_neutral(matrix: ReplayMatrix) -> str:
    """Summary of the memory-neutral comparison."""
    trees = matrix.memory_neutral()
    (normal_bytes, normal_dummy), (fat_bytes, fat_dummy) = trees.values()
    lines = ["Memory-neutral comparison (Section VIII-C)"] + [
        f"  {tree}: {memory} bytes, {dummy} dummy reads" for tree, (memory, dummy) in trees.items()
    ]
    reduction = 1.0 - fat_dummy / normal_dummy if normal_dummy else 0.0
    lines.append(f"  fat tree memory saving: {1.0 - fat_bytes / normal_bytes:.1%}")
    lines.append(f"  dummy read reduction:   {reduction:.1%}")
    return "\n".join(lines)
