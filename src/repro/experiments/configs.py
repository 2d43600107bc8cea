"""Named engine configurations matching the paper's notation.

The evaluation compares seven configurations per workload (Fig. 7):
``PathORAM`` (the baseline, equivalent to superblock size 1), ``Normal/S{2,4,8}``
(LAORAM on a uniform-bucket tree) and ``Fat/S{2,4,8}`` (LAORAM on the
fat tree).  This module turns those labels into engine instances, and also
provides the insecure baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.oram.base import ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory
from repro.oram.path_oram import PathORAM

#: The one family table: family -> engine class.  ``build_engine`` and the
#: shard engine specs (:mod:`repro.experiments.sharded.planner`) both pick
#: their class here.
ENGINE_CLASSES: dict[str, type] = {
    "pathoram": PathORAM,
    "laoram": LAORAMClient,
}

#: Configuration labels used in the paper's figures, in plotting order.
PAPER_CONFIG_LABELS: tuple[str, ...] = (
    "PathORAM",
    "Normal/S2",
    "Normal/S4",
    "Normal/S8",
    "Fat/S2",
    "Fat/S4",
    "Fat/S8",
)

def build_oram_config(
    num_blocks: int,
    block_size_bytes: int = 128,
    bucket_size: int = 4,
    fat_tree: bool = False,
    root_bucket_size: Optional[int] = None,
    seed: int = 0,
    recursive_posmap: bool = False,
    posmap_positions_per_block: int = 64,
    posmap_cutoff_bytes: int = 1 << 16,
) -> ORAMConfig:
    """Convenience constructor for the tree geometry used across experiments."""
    return ORAMConfig(
        num_blocks=num_blocks,
        block_size_bytes=block_size_bytes,
        bucket_size=bucket_size,
        fat_tree=fat_tree,
        root_bucket_size=root_bucket_size,
        seed=seed,
        recursive_posmap=recursive_posmap,
        posmap_positions_per_block=posmap_positions_per_block,
        posmap_cutoff_bytes=posmap_cutoff_bytes,
    )


def parse_label(label: str) -> dict:
    """Decompose a configuration label into its engine family and parameters."""
    if label == "PathORAM":
        return {"family": "pathoram"}
    if label == "Insecure":
        return {"family": "insecure"}
    if label.startswith(("Normal/S", "Fat/S")):
        tree, _, size = label.partition("/S")
        if not size.isdecimal():
            raise ConfigurationError(
                f"superblock size '{size}' in label '{label}' is not a number"
            )
        return {
            "family": "laoram",
            "fat_tree": tree == "Fat",
            "superblock_size": int(size),
        }
    raise ConfigurationError(f"unknown configuration label '{label}'")


def build_engine(
    label: str,
    oram_config: ORAMConfig,
    counter: Optional[TrafficCounter] = None,
    observer=None,
    fast: bool = False,
    recursive_posmap: Optional[bool] = None,
) -> ObliviousMemory:
    """Instantiate the engine named by ``label`` on the given tree geometry.

    ``fast`` is ignored: each family has one engine.  It is still accepted
    because the benchmark suite passes it, and goes with the suite's next
    revision.

    ``recursive_posmap=True`` (or the flag already set on ``oram_config``)
    stores the position map in recursion ORAMs instead of a trusted dense
    array; ``None`` leaves ``oram_config``'s flag untouched.
    """
    parsed = parse_label(label)
    config = (
        oram_config
        if recursive_posmap is None
        else oram_config.with_overrides(recursive_posmap=recursive_posmap)
    )
    family = parsed["family"]
    if family == "insecure":
        return InsecureMemory(config, counter=counter, observer=observer)
    engine_cls = ENGINE_CLASSES[family]
    if family == "pathoram":
        return engine_cls(config, counter=counter, observer=observer)
    laoram_config = LAORAMConfig(
        oram=config.with_overrides(fat_tree=parsed["fat_tree"]),
        superblock_size=parsed["superblock_size"],
    )
    return engine_cls(laoram_config, counter=counter, observer=observer)
