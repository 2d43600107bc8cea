"""Data blocks stored in the per-object reference tree.

A block is the unit of ORAM storage.  In the embedding-table use case one
block holds one embedding row (the paper uses 128-byte rows for DLRM and
4 KiB rows for XLM-R).  The simulator supports two modes:

* *metadata-only* blocks (``payload is None``) for traffic/latency studies,
  where only which blocks move matters; and
* *payload-carrying* blocks, used by the embedding trainer so that data
  integrity through the ORAM can be verified end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Block:
    """A single ORAM block.

    Attributes:
        block_id: Logical address of the block (embedding row index).
        leaf: Path (leaf label) the block is currently assigned to.
        payload: Optional payload bytes or array carried by the block.
    """

    block_id: int
    leaf: int
    payload: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise ValueError(f"invalid block id {self.block_id}")
        if self.leaf < 0:
            raise ValueError(f"invalid leaf {self.leaf}")
