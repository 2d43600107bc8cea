"""Lookahead amortization of the recursive position map.

A recursive position map charges one recursion walk per position-map
update, so the interesting number is *walks per logical access* across
engine families: PathORAM remaps exactly one block per access (1.0
walks/access, minus stash-hit effects), while LAORAM remaps a whole
superblock per charged walk — repeated accesses to a bin's blocks ride
the same update, which is exactly the lookahead batching the paper banks
on.  This experiment replays the same Zipf trace through each family
twice, once with the dense map and once with the recursion enabled, and
reports:

* the amortization (``posmap_*`` walks per logical access),
* the recursion's byte overhead relative to main-tree traffic, and
* the honest client-memory reduction (dense array vs recursion top map
  plus per-level stashes), per the revised ``client_memory_bytes``
  contract.

Main-tree bit-identity between the dense and recursive runs is asserted
on every row — the recursion must change *where the map lives*, never
what the engine does.  Tests drive it at reduced scale; the ``python -c``
line in ``docs/recursive_position_map.md`` reproduces a row of the 2^20-2^23
sweep at the production geometry (64 KiB cutoff, 64-byte blocks).  There is
no ``python -m`` entry point: the package ``__init__`` re-exports this
module, which ``runpy`` warns about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_engine
from repro.oram.config import ORAMConfig

#: Families in the amortization table -> their configuration labels.
RECURSION_FAMILY_LABELS: dict[str, str] = {
    "laoram": "Normal/S4",
    "pathoram": "PathORAM",
}

RECURSION_FAMILIES: tuple[str, ...] = tuple(RECURSION_FAMILY_LABELS)


@dataclass(frozen=True)
class RecursionAmortizationRow:
    """One (family, size) cell of the lookahead-amortization table."""

    family: str
    label: str
    num_blocks: int
    num_accesses: int
    num_levels: int
    positions_per_block: int
    label_bytes: int
    block_bytes: int
    top_map_bytes: int
    posmap_walks: int
    posmap_bytes: int
    main_tree_bytes: int
    client_memory_dense_bytes: int
    client_memory_recursive_bytes: int
    bit_identical: bool

    @property
    def walks_per_access(self) -> float:
        """Charged recursion walks per logical access (the amortization)."""
        return self.posmap_walks / max(1, self.num_accesses)

    @property
    def posmap_traffic_fraction(self) -> float:
        """Recursion bytes relative to main-tree bytes (the overhead)."""
        if self.main_tree_bytes == 0:
            return 0.0
        return self.posmap_bytes / self.main_tree_bytes

    @property
    def client_memory_reduction(self) -> float:
        """How much smaller the recursive client footprint is (x)."""
        return self.client_memory_dense_bytes / max(
            1, self.client_memory_recursive_bytes
        )


#: Main-tree snapshot fields the dense/recursive runs must agree on.
_CORE_FIELDS = (
    "logical_accesses",
    "path_reads",
    "path_writes",
    "dummy_reads",
    "bytes_read",
    "bytes_written",
    "stash_peak",
    "background_evictions",
)


def _run(label, config, addresses):
    engine = build_engine(label, config)
    engine.run_trace(addresses)
    return engine


def run_recursion_amortization(
    families: Sequence[str] = RECURSION_FAMILIES,
    num_blocks_list: Sequence[int] = (1 << 14,),
    num_accesses: int = 5_000,
    positions_per_block: int = 64,
    cutoff_bytes: int = 1 << 12,
    block_size_bytes: int = 64,
    zipf_exponent: float = 1.1,
    seed: int = 3,
) -> list[RecursionAmortizationRow]:
    """Measure the amortization table for every (family, size) pair.

    The default cutoff is deliberately small so reduced-scale runs still
    build at least one recursion level; the full-scale sweep uses the
    production 64 KiB cutoff.
    """
    unknown = [
        family for family in families if family not in RECURSION_FAMILY_LABELS
    ]
    if unknown:
        raise ConfigurationError(f"unknown engine families: {unknown}")
    rows: list[RecursionAmortizationRow] = []
    for num_blocks in num_blocks_list:
        trace = ZipfTraceGenerator(
            num_blocks, exponent=zipf_exponent, seed=7
        ).generate(num_accesses)
        for family in families:
            label = RECURSION_FAMILY_LABELS[family]
            base = ORAMConfig(
                num_blocks=num_blocks,
                block_size_bytes=block_size_bytes,
                seed=seed,
                posmap_positions_per_block=positions_per_block,
                posmap_cutoff_bytes=cutoff_bytes,
            )
            dense = _run(label, base, trace.addresses)
            dense_snapshot = dense.statistics
            dense_leaves = dense.position_map.as_array()
            dense_cmb = dense.client_memory_bytes()
            recursive = _run(
                label,
                base.with_overrides(recursive_posmap=True),
                trace.addresses,
            )
            snapshot = recursive.statistics
            posmap = recursive.position_map
            # Every level packs the same block: chi labels plus metadata.
            level = posmap.geometry()[0]
            identical = bool(
                np.array_equal(dense_leaves, posmap.as_array())
            ) and all(
                getattr(dense_snapshot, name) == getattr(snapshot, name)
                for name in _CORE_FIELDS
            )
            rows.append(
                RecursionAmortizationRow(
                    family=family,
                    label=label,
                    num_blocks=num_blocks,
                    num_accesses=num_accesses,
                    num_levels=posmap.num_levels,
                    positions_per_block=positions_per_block,
                    label_bytes=level["label_bytes"],
                    block_bytes=level["block_bytes"],
                    top_map_bytes=posmap.top_map_bytes,
                    posmap_walks=snapshot.posmap_path_reads,
                    posmap_bytes=snapshot.posmap_total_bytes,
                    main_tree_bytes=snapshot.bytes_read
                    + snapshot.bytes_written,
                    client_memory_dense_bytes=dense_cmb,
                    client_memory_recursive_bytes=recursive.client_memory_bytes(),
                    bit_identical=identical,
                )
            )
    return rows


def render_recursion_table(
    rows: Sequence[RecursionAmortizationRow],
    title: Optional[str] = None,
) -> str:
    """Aligned text table of the amortization sweep."""
    from repro.experiments.report import format_table

    body = [
        [
            row.family,
            str(row.num_blocks),
            str(row.num_levels),
            str(row.label_bytes),
            str(row.block_bytes),
            str(row.top_map_bytes),
            f"{row.walks_per_access:.3f}",
            f"{100 * row.posmap_traffic_fraction:.1f}%",
            f"{row.client_memory_reduction:.0f}x",
            "yes" if row.bit_identical else "NO",
        ]
        for row in rows
    ]
    table = format_table(
        [
            "family",
            "blocks",
            "levels",
            "label B",
            "block B",
            "top map B",
            "walks/access",
            "posmap/main traffic",
            "client-mem reduction",
            "bit-identical",
        ],
        body,
    )
    header = title if title is not None else (
        "Recursive position map: lookahead amortization"
    )
    return header + "\n" + table

