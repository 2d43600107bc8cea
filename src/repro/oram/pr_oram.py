"""PrORAM — history-based superblock ORAM (Yu et al., ISCA'15).

PrORAM extends PathORAM with *superblocks*: groups of address-adjacent data
blocks that share a path, so one path fetch brings the whole group into the
stash and the following accesses to group members become stash hits.

Two variants from the paper are provided:

* **static** superblocks: every aligned group of ``superblock_size``
  consecutive addresses is always merged, and groups are co-located on a
  shared path at setup;
* **dynamic** superblocks: a per-group spatial-locality counter is increased
  when different members of a group are accessed close together and decreased
  otherwise; groups behave as superblocks only while their counter is above a
  threshold.

When a merged group is fetched, the partner blocks are *held* in the stash
across the write-back so that imminent accesses to them are stash hits; this
is the prefetch effect PrORAM's performance relies on.

On the near-random embedding-table traces of the LAORAM paper (Fig. 2),
dynamic PrORAM finds almost no mergeable locality and degrades to PathORAM,
which is why the paper uses plain PathORAM as its baseline.  This
implementation exists to reproduce that observation.

The superblock policy lives in :class:`SuperblockPolicyMixin`, written
against the storage hooks of :class:`~repro.oram.engine.TreeORAMEngine`, so
the same control flow runs on both backends: :class:`PrORAM` (per-object
reference) and :class:`ArrayPrORAM` (vectorized twin, bit-identical counters
for a fixed seed).
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from typing import Optional

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.oram.array_path_oram import ArrayPathORAM
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy
from repro.oram.path_oram import PathORAM


class SuperblockMode(enum.Enum):
    """How PrORAM decides which adjacent blocks form a superblock."""

    STATIC = "static"
    DYNAMIC = "dynamic"


class SuperblockPolicyMixin:
    """PrORAM-style superblock policy over the shared engine's storage hooks.

    The mixin owns group bookkeeping (locality counters, merge set) and the
    merged-access control flow — fetch once, remap the whole group to one
    fresh path, hold the partners in the stash across the write-back.  All
    block movement goes through the backend-agnostic stash/tree hooks, so
    the per-object and array engines make identical decisions.
    """

    def __init__(
        self,
        config: ORAMConfig,
        superblock_size: int = 2,
        mode: SuperblockMode = SuperblockMode.DYNAMIC,
        merge_threshold: int = 2,
        history_window: int = 64,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
    ):
        if superblock_size < 1:
            raise ConfigurationError("superblock_size must be >= 1")
        if merge_threshold < 1:
            raise ConfigurationError("merge_threshold must be >= 1")
        if history_window < 1:
            raise ConfigurationError("history_window must be >= 1")
        super().__init__(
            config,
            counter=counter,
            eviction=eviction,
            rng=rng,
            observer=observer,
        )
        self.superblock_size = superblock_size
        self.mode = mode
        self.merge_threshold = merge_threshold
        self.history_window = history_window
        self._locality_counters: dict[int, int] = defaultdict(int)
        self._merged_groups: set[int] = set()
        self._recent_blocks: deque[int] = deque(maxlen=history_window)
        # Multiset views of the deque contents so the partners-recent test
        # is O(1) instead of an O(window) scan per access.
        self._recent_group_counts: dict[int, int] = {}
        self._recent_block_counts: dict[int, int] = {}
        if mode is SuperblockMode.STATIC and superblock_size > 1:
            self._merged_groups = set(range(self._num_groups()))
            self._colocate_groups()

    # ------------------------------------------------------------------
    # Superblock bookkeeping
    # ------------------------------------------------------------------
    def _num_groups(self) -> int:
        return -(-self.config.num_blocks // self.superblock_size)

    def group_of(self, block_id: int) -> int:
        """Aligned superblock group an address belongs to."""
        return block_id // self.superblock_size

    def group_members(self, group: int) -> list[int]:
        """Block ids belonging to ``group`` (the last group may be short)."""
        start = group * self.superblock_size
        end = min(start + self.superblock_size, self.config.num_blocks)
        return list(range(start, end))

    def is_merged(self, group: int) -> bool:
        """Whether ``group`` currently behaves as one superblock."""
        return group in self._merged_groups

    def _colocate_groups(self) -> None:
        """Trusted-setup relayout placing each group on one shared path."""
        for group in range(self._num_groups()):
            shared_leaf = int(self.rng.integers(0, self._num_leaves))
            for member in self.group_members(group):
                self.position_map.load(member, shared_leaf)
        self._relayout_tree()

    def _update_locality(self, block_id: int) -> None:
        """Dynamic-mode counter update based on recently accessed blocks.

        The window is tracked as two multisets (occurrences per group and
        per exact block), so "a *different* member of my group was accessed
        recently" is one subtraction — the same answer the original
        O(window) ``any`` scan gives, at O(1) per access.
        """
        if self.mode is not SuperblockMode.DYNAMIC or self.superblock_size == 1:
            return
        group = self.group_of(block_id)
        group_counts = self._recent_group_counts
        block_counts = self._recent_block_counts
        partners_recent = group_counts.get(group, 0) > block_counts.get(block_id, 0)
        if partners_recent:
            self._locality_counters[group] = min(
                self._locality_counters[group] + 1, 2 * self.merge_threshold
            )
        elif self._locality_counters[group] > 0:
            self._locality_counters[group] -= 1
        recent = self._recent_blocks
        if len(recent) == recent.maxlen:
            evicted = recent[0]
            evicted_group = evicted // self.superblock_size
            count = group_counts[evicted_group] - 1
            if count:
                group_counts[evicted_group] = count
            else:
                del group_counts[evicted_group]
            count = block_counts[evicted] - 1
            if count:
                block_counts[evicted] = count
            else:
                del block_counts[evicted]
        recent.append(block_id)
        group_counts[group] = group_counts.get(group, 0) + 1
        block_counts[block_id] = block_counts.get(block_id, 0) + 1
        if self._locality_counters[group] >= self.merge_threshold:
            self._merged_groups.add(group)
        else:
            self._merged_groups.discard(group)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Access ``block_id``, co-locating its superblock partners when merged."""
        self._check_block_id(block_id)
        self._update_locality(block_id)
        group = self.group_of(block_id)
        if not self.is_merged(group) or self.superblock_size == 1:
            return super().access(block_id, op, new_payload)

        self.counter.record_logical_access()

        # All group members resident in the stash once the block is in hand
        # are remapped to a single fresh path so they travel together from
        # now on.  A missing block's update comes first, in Path ORAM's
        # order, and its fetch brings it in under the shared leaf.
        shared_leaf = self._draw_leaf()
        members = self.group_members(group)
        handle = self._stash_lookup(block_id)
        read_leaf: Optional[int] = None
        if handle is None:
            read_leaf = self.position_map.update(block_id, shared_leaf)
            self._read_path_into_stash(read_leaf, dummy=False)
            handle = self._stash_lookup(block_id)
            if handle is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
        else:
            self.counter.record_stash_hit()
        payload = self._serve(handle, op, new_payload)
        for member in members:
            # A fetched block was remapped by its update above.
            if member in self.stash and (member != block_id or read_leaf is None):
                self._update_leaf(member, shared_leaf)

        if read_leaf is not None:
            # Hold the just-fetched partners in the stash across the
            # write-back: imminent accesses to them become stash hits, which
            # is where PrORAM's path-read savings come from.
            held = []
            for member in members:
                if member == block_id:
                    continue
                member_handle = self._stash_detach(member)
                if member_handle is not None:
                    held.append(member_handle)
            self._write_back(read_leaf)
            for member_handle in held:
                self._stash_reattach(member_handle)
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payload

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def merged_group_count(self) -> int:
        """Number of groups currently treated as superblocks."""
        return len(self._merged_groups)


class PrORAM(SuperblockPolicyMixin, PathORAM):
    """PathORAM with history-based (PrORAM-style) superblocks (per-object)."""


class ArrayPrORAM(SuperblockPolicyMixin, ArrayPathORAM):
    """Vectorized PrORAM twin: superblock policy over the array backend.

    Path reads, write-back planning and the static-mode relayout all run on
    the array storage engine while the policy draws from the RNG in exactly
    the per-object order, so a fixed seed gives bit-identical traffic
    counters to :class:`PrORAM`.  A trace runs the generic per-access loop:
    the policy's ``access`` is its own, so the array engine's bin kernel
    does not apply.
    """
