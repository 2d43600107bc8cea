"""Configuration of the LAORAM client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig


@dataclass(frozen=True)
class LAORAMConfig:
    """Parameters of a LAORAM instance.

    Attributes:
        oram: Geometry and eviction parameters of the underlying tree (this
            is where the normal vs fat tree choice lives).
        superblock_size: Number of consecutive future accesses the
            preprocessor places into one superblock bin (paper: 2, 4 or 8;
            size 1 degenerates to PathORAM).
        lookahead_accesses: How many future accesses the preprocessor may
            scan at a time.  ``None`` means the whole remaining trace (the
            paper notes an epoch's worth fits comfortably in preprocessor
            memory).
    """

    oram: ORAMConfig
    superblock_size: int = 4
    lookahead_accesses: Optional[int] = None

    def __post_init__(self) -> None:
        if self.superblock_size < 1:
            raise ConfigurationError("superblock_size must be >= 1")
        if self.lookahead_accesses is not None and self.lookahead_accesses < self.superblock_size:
            raise ConfigurationError(
                "lookahead_accesses must be >= superblock_size when set"
            )

    def describe(self) -> str:
        """Short configuration label in the paper's notation, e.g. ``"Fat/S4"``."""
        tree = "Fat" if self.oram.fat_tree else "Normal"
        return f"{tree}/S{self.superblock_size}"
