"""One replay matrix under every figure and table of the evaluation.

The paper's evaluation (Fig. 7-9, Table II, Sec. VIII-C) and the recursion
table of the position map LAORAM inherits from Path ORAM are one grid of
replays, each a configuration run over a workload.  A :class:`Cell` names
one replay completely, every seed included; :class:`ReplayMatrix` replays a
cell the first time it is asked for it, returns the stored record after
that, and builds each trace once.

Each figure and table is a projection: a method that names its cells under
its own seed rule and reduces their records to the numbers its renderer in
:mod:`repro.experiments.report` prints.  Fig. 7 and Fig. 9 seed each label
``seed + offset``, Table II ``seed + 10 * config + dataset`` over trace seed
``seed + dataset``, Fig. 8 ``seed + offset``, the memory-neutral
comparison ``seed`` and ``seed + 1``, and the recursion table both cells of
row ``r`` ``seed + r`` over Zipf trace seed ``seed``; so Fig. 9 reads Fig.
7e's seven cells and replays none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from repro.datasets.base import AccessTrace
from repro.datasets.registry import make_trace
from repro.exceptions import ConfigurationError
from repro.experiments.configs import PAPER_CONFIG_LABELS, build_engine, parse_label
from repro.experiments.scale import SMALL, ExperimentScale
from repro.memory.accounting import TrafficSnapshot
from repro.oram.config import ORAMConfig
from repro.oram.position_map import LABEL_BYTES, PositionMap

#: Workloads of Figure 7's six sub-figures: (dataset, table selector).
SUBFIGURES: dict[str, tuple[str, str]] = {
    "7a": ("permutation", "base"),
    "7b": ("permutation", "secondary"),
    "7c": ("gaussian", "base"),
    "7d": ("gaussian", "secondary"),
    "7e": ("kaggle", "base"),
    "7f": ("xnli", "base"),
}

#: Figure 8's rows: row label -> (engine label, fat-tree root bucket size).
FIGURE8_CONFIGS: dict[str, tuple[str, Optional[int]]] = {
    "Normal-4": ("Normal/S4", None),
    "Fat-4": ("Fat/S4", 8),
    "Normal-8": ("Normal/S8", None),
    "Fat-8": ("Fat/S8", 8),
}

#: The sub-figure whose cells Figure 9 measures.
FIGURE9_SUBFIGURE = "7e"

#: Row and column order of Table II.
TABLE2_CONFIGS: tuple[str, ...] = ("Fat/S8", "Fat/S4", "Normal/S8", "Normal/S4")
TABLE2_DATASETS: tuple[str, ...] = ("permutation", "gaussian", "kaggle", "xnli")

#: Rows of the recursion table.
RECURSION_CONFIGS: tuple[str, ...] = ("PathORAM", "Normal/S4")


class RecursionRow(NamedTuple):
    """One row of the recursion table: the map's geometry, then what the
    recursive cell measured against the dense one."""

    levels: int
    label_bytes: int
    block_bytes: int
    top_map_bytes: int
    walks_per_access: float
    posmap_traffic_share: float
    client_memory_reduction: float
    bit_identical: bool


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of driving one engine configuration over one access trace."""

    label: str
    dataset: str
    num_accesses: int
    snapshot: TrafficSnapshot
    simulated_time_s: float
    server_memory_bytes: int
    client_memory_bytes: int
    stash_history: tuple[int, ...] = ()

    @property
    def time_per_access_s(self) -> float:
        """Average simulated latency per logical access."""
        return self.simulated_time_s / self.num_accesses if self.num_accesses else 0.0

    @property
    def bytes_per_access(self) -> float:
        """Average server bytes moved per logical access."""
        return self.snapshot.total_bytes / self.num_accesses if self.num_accesses else 0.0

    @property
    def dummy_reads_per_access(self) -> float:
        """Average dummy (background-eviction) reads per access (Table II)."""
        return self.snapshot.dummy_reads_per_access

    def speedup_over(self, baseline: "ExperimentResult") -> float:
        """Speedup of this configuration relative to ``baseline`` (Fig. 7)."""
        if self.time_per_access_s == 0:
            raise ConfigurationError("cannot compute speedup with zero access time")
        return baseline.time_per_access_s / self.time_per_access_s

    def traffic_reduction_over(self, baseline: "ExperimentResult") -> float:
        """Bytes-moved reduction factor relative to ``baseline`` (Fig. 9)."""
        if self.bytes_per_access == 0:
            raise ConfigurationError("cannot compute reduction with zero traffic")
        return baseline.bytes_per_access / self.bytes_per_access


@dataclass(frozen=True)
class Cell:
    """One replay: ``label``'s engine on ``oram`` over one trace.

    ``oram`` carries the table size, the engine seed, the bucket sizes and
    the background-eviction settings.  The trace is ``dataset``'s generator at
    that table size, ``num_accesses`` long, seeded with ``trace_seed``.
    """

    label: str
    dataset: str
    num_accesses: int
    trace_seed: int
    oram: ORAMConfig
    record_stash_history: bool = False


def replay(cell: Cell, trace: AccessTrace) -> ExperimentResult:
    """The cell runner: build ``cell``'s engine and ``run_trace`` it over ``trace``.

    LAORAM clients look ahead (preprocessing, trusted placement, superblock
    bins) and PathORAM runs its bin kernel, as every caller of the engine
    verb does.
    """
    engine = build_engine(cell.label, cell.oram)
    engine.counter.record_stash_history = cell.record_stash_history
    engine.run_trace(trace.addresses)
    return ExperimentResult(
        label=cell.label,
        dataset=trace.name,
        num_accesses=len(trace),
        snapshot=engine.statistics,
        simulated_time_s=engine.simulated_time_s,
        server_memory_bytes=engine.server_memory_bytes,
        client_memory_bytes=engine.client_memory_bytes(),
        stash_history=tuple(engine.counter.stash_history),
    )


def theoretical_traffic_bound(label: str, bucket_size: int = 4) -> float:
    """Fig. 9's upper bound on a configuration's traffic reduction.

    ``S`` on the normal tree, ``2(Z+1)/(3Z+1) * S`` on the fat tree, whose
    paths carry about 50% more bytes; background evictions keep the
    measured reductions below it.
    """
    parsed = parse_label(label)
    superblock = parsed.get("superblock_size", 1)
    if parsed.get("fat_tree"):
        return 2.0 * (bucket_size + 1) / (3.0 * bucket_size + 1) * superblock
    return float(superblock)


class ReplayMatrix:
    """The evaluation's replays at one scale, each made once."""

    def __init__(self, scale: ExperimentScale = SMALL) -> None:
        self.scale = scale
        self._traces: dict[tuple[str, int, int, int], AccessTrace] = {}
        self._records: dict[Cell, ExperimentResult] = {}

    def record(self, cell: Cell) -> ExperimentResult:
        """``cell``'s record, replayed the first time it is asked for."""
        if cell not in self._records:
            # ``make_trace``'s arguments: cells that agree on them share a trace.
            key = (cell.dataset, cell.oram.num_blocks, cell.num_accesses, cell.trace_seed)
            if key not in self._traces:
                self._traces[key] = make_trace(*key)
            self._records[cell] = replay(cell, self._traces[key])
        return self._records[cell]

    def _cell(
        self, label: str, dataset: str, trace_seed: int, num_blocks: Optional[int] = None,
        record_stash_history: bool = False, **oram,
    ) -> Cell:
        """A cell at this matrix's scale; ``oram`` overrides the default
        tree geometry and engine seed."""
        config = ORAMConfig(
            num_blocks or self.scale.num_blocks,
            block_size_bytes=self.scale.block_size_bytes,
            **oram,
        )
        return Cell(
            label, dataset, self.scale.num_accesses, trace_seed, config, record_stash_history,
        )

    def workload(self, subfigure: str) -> tuple[str, int]:
        """``(dataset, table size)`` of a Figure 7 sub-figure."""
        if subfigure not in SUBFIGURES:
            raise ConfigurationError(
                f"unknown sub-figure '{subfigure}'; expected one of {sorted(SUBFIGURES)}"
            )
        dataset, selector = SUBFIGURES[subfigure]
        blocks = self.scale.num_blocks if selector == "base" else self.scale.secondary_blocks
        return dataset, blocks

    def _against_pathoram(self, subfigure: str, seed: int) -> dict[str, Cell]:
        dataset, num_blocks = self.workload(subfigure)
        return {
            label: self._cell(label, dataset, seed, num_blocks, seed=seed + offset)
            for offset, label in enumerate(PAPER_CONFIG_LABELS)
        }

    def figure7(self, subfigure: str = "7e", seed: int = 0) -> dict[str, float]:
        """Speedup of every configuration over PathORAM in one sub-figure (Fig. 7).

        The paper's best configurations reach ~5x on Kaggle and ~5.4x on
        XNLI, with much smaller gains (and a dip at normal-tree S8) on the
        adversarial permutation stream.
        """
        cells = self._against_pathoram(subfigure, seed)
        baseline = self.record(cells["PathORAM"])
        return {label: self.record(cell).speedup_over(baseline) for label, cell in cells.items()}

    def figure9(self, seed: int = 0) -> dict[str, tuple[float, float]]:
        """``{label: (measured, bound)}`` bytes-moved reduction over PathORAM
        on Fig. 7e's cells (Fig. 9), the bound at the cell's bucket size."""
        cells = self._against_pathoram(FIGURE9_SUBFIGURE, seed)
        baseline = self.record(cells["PathORAM"])
        return {
            label: (
                self.record(cell).traffic_reduction_over(baseline),
                theoretical_traffic_bound(label, cell.oram.bucket_size),
            )
            for label, cell in cells.items()
        }

    def figure8(self, seed: int = 0) -> dict[str, tuple[int, ...]]:
        """Stash occupancy after every access of the permutation stream (Fig. 8).

        Background eviction is off, so the curves show raw stash growth:
        the normal tree's grows several times faster than the fat tree's.
        """
        return {
            row: self.record(self._cell(
                label, "permutation", seed,
                record_stash_history=True, fat_tree=fat_root is not None, root_bucket_size=fat_root,
                background_eviction=False, seed=seed + offset,
            )).stash_history
            for offset, (row, (label, fat_root)) in enumerate(FIGURE8_CONFIGS.items())
        }

    def table2(self, seed: int = 0) -> dict[str, dict[str, float]]:
        """Dummy reads per access by configuration and dataset (Table II).

        Dummy reads are the background-eviction fetches the paper triggers
        above 500 stash blocks (drained to 50); the fat tree cuts them about
        3x, and Kaggle and XNLI incur far fewer than the permutation stream.
        """
        return {
            label: {
                dataset: self.record(self._cell(
                    label, dataset, seed + d, seed=seed + 10 * c + d
                )).dummy_reads_per_access
                for d, dataset in enumerate(TABLE2_DATASETS)
            }
            for c, label in enumerate(TABLE2_CONFIGS)
        }

    def memory_neutral(self, seed: int = 0) -> dict[str, tuple[int, int]]:
        """Sec. VIII-C: ``{tree: (server bytes, dummy reads)}`` at S8.

        A normal tree of bucket 6 is at least as big as a fat tree of
        buckets 9 (root) to 5 (leaf); the fat tree still triggers fewer
        dummy reads, because its extra slots sit where write-backs land.
        The eviction threshold is 100 (drained to 10), not the paper's 500:
        the reduced-scale trees build proportionally less stash pressure.
        """
        eviction = dict(eviction_threshold=100, eviction_target=10)
        normal = self._cell(
            "Normal/S8", "permutation", seed, bucket_size=6, seed=seed, **eviction
        )
        fat = self._cell(
            "Fat/S8", "permutation", seed, **eviction,
            bucket_size=5, fat_tree=True, root_bucket_size=9, seed=seed + 1,
        )
        records = {
            f"normal tree bucket {normal.oram.bucket_size}": self.record(normal),
            f"fat tree {fat.oram.root_bucket_size}->{fat.oram.bucket_size}": self.record(fat),
        }
        return {
            name: (record.server_memory_bytes, record.snapshot.dummy_reads)
            for name, record in records.items()
        }

    def _recursion_cells(self, seed: int) -> dict[str, tuple[Cell, Cell]]:
        """``{label: (dense, recursive)}``: two cells apart only in
        ``recursive_posmap``, under a budget of the 64 KiB default or half
        the dense map, whichever is smaller, so every scale builds a level."""
        cutoff = min(ORAMConfig.posmap_cutoff_bytes, self.scale.num_blocks * LABEL_BYTES // 2)
        return {
            label: tuple(
                self._cell(
                    label, "zipf", seed, seed=seed + offset,
                    recursive_posmap=recursive, posmap_cutoff_bytes=cutoff,
                )
                for recursive in (False, True)
            )
            for offset, label in enumerate(RECURSION_CONFIGS)
        }

    def recursion(self, seed: int = 0) -> dict[str, RecursionRow]:
        """The recursive position map against the dense one, per configuration.

        The recursion (Path ORAM, CCS'13) moves the map into ORAMs and
        charges a walk per remap; it must change where the map lives, never
        what the engine does, so every counter but the ``posmap_*`` ones
        agrees between the two cells (``bit_identical``).  PathORAM pays one
        walk per access; LAORAM remaps a block once per bin, however often
        the bin reads it, and pays fewer.
        """
        rows = {}
        for label, (dense_cell, recursive_cell) in self._recursion_cells(seed).items():
            dense, recursive = self.record(dense_cell), self.record(recursive_cell)
            oram = recursive_cell.oram
            sizes = PositionMap.level_sizes(
                oram.num_blocks, oram.posmap_positions_per_block, oram.posmap_cutoff_bytes
            )
            snapshot = recursive.snapshot
            rows[label] = RecursionRow(
                levels=len(sizes),
                label_bytes=LABEL_BYTES,
                block_bytes=oram.posmap_positions_per_block * LABEL_BYTES
                + oram.metadata_bytes_per_block,
                top_map_bytes=sizes[-1] * LABEL_BYTES,
                walks_per_access=snapshot.posmap_path_reads / recursive.num_accesses,
                posmap_traffic_share=snapshot.posmap_total_bytes / snapshot.total_bytes,
                client_memory_reduction=dense.client_memory_bytes
                / recursive.client_memory_bytes,
                bit_identical=all(
                    getattr(dense.snapshot, field.name) == getattr(snapshot, field.name)
                    for field in fields(TrafficSnapshot)
                    if not field.name.startswith("posmap_")
                ),
            )
        return rows
