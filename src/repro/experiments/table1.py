"""Table I: embedding-table memory requirement of every storage organisation.

Unlike the timing experiments, Table I is pure arithmetic over the storage
layouts, so it is evaluated at the paper's full sizes: 8M and 16M entry
synthetic tables (128-byte rows), the largest Kaggle table (10,131,227 rows
of 128 bytes) and the XLM-R/XNLI table (262,144 rows of 4 KiB).  Columns are
the unprotected table, the PathORAM tree, the LAORAM tree (same geometry as
PathORAM — superblocks add no storage) and the fat tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.kaggle import KAGGLE_LARGEST_TABLE_ROWS
from repro.datasets.xnli import XLMR_VOCABULARY_SIZE
from repro.oram.config import ORAMConfig

#: The four table configurations of Table I: name -> (rows, row bytes).
TABLE1_WORKLOADS: dict[str, tuple[int, int]] = {
    "8M": (8 * 1024 * 1024, 128),
    "16M": (16 * 1024 * 1024, 128),
    "Kaggle": (KAGGLE_LARGEST_TABLE_ROWS, 128),
    "XNLI": (XLMR_VOCABULARY_SIZE, 4096),
}


@dataclass(frozen=True)
class Table1Row:
    """Memory requirement of one workload under each organisation (bytes)."""

    workload: str
    insecure_bytes: int
    pathoram_bytes: int
    laoram_bytes: int
    fat_bytes: int

    @property
    def pathoram_overhead(self) -> float:
        """PathORAM tree size relative to the raw table."""
        return self.pathoram_bytes / self.insecure_bytes

    @property
    def fat_overhead_vs_normal(self) -> float:
        """Extra memory the fat tree uses compared to the normal LAORAM tree."""
        return self.fat_bytes / self.laoram_bytes


def run_table1() -> list[Table1Row]:
    """Compute every row of Table I (bucket size 4, the paper's)."""
    rows = []
    for name, (num_rows, row_bytes) in TABLE1_WORKLOADS.items():
        base = ORAMConfig(
            num_blocks=num_rows,
            block_size_bytes=row_bytes,
            metadata_bytes_per_block=0,
        )
        # Table I's fat-tree column corresponds to the per-level-increment
        # growth policy (the only one whose ~25% overhead matches the paper).
        fat = base.with_overrides(fat_tree=True, fat_tree_growth="increment")
        rows.append(
            Table1Row(
                workload=name,
                insecure_bytes=base.insecure_memory_bytes,
                pathoram_bytes=base.server_memory_bytes,
                laoram_bytes=base.server_memory_bytes,
                fat_bytes=fat.server_memory_bytes,
            )
        )
    return rows
