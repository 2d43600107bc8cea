"""The LAORAM client: PathORAM machinery driven by lookahead superblocks.

LAORAM keeps PathORAM's tree, stash, position map and eviction logic (and
therefore its obliviousness argument), but changes two things:

* **Superblock-granularity access.**  The trace is processed in the bins the
  preprocessor formed.  All blocks of a bin that already sit in the stash are
  served for free; the remaining blocks are grouped by their current path and
  each distinct path is fetched exactly once.  After a warm-up epoch most of
  a bin's blocks share one path, so a bin of ``S`` accesses costs roughly one
  path read instead of ``S``.
* **Plan-driven remapping.**  When a block is written back, its new path is
  the path of the superblock bin in which it is next accessed (falling back
  to a uniformly random path when the plan has no future occurrence).  Since
  every bin's path was drawn uniformly and independently of the block's
  identity, the observable access pattern stays identical to PathORAM's
  (Section VI of the paper).

The fat-tree option lives entirely in :class:`~repro.oram.config.ORAMConfig`,
so the same client runs both the "Normal" and "Fat" configurations of the
evaluation.

:class:`LAORAMClient` is :class:`~repro.oram.path_oram.PathORAM` plus the
plan and the trace cursor.  Every request, whichever entry point it came
through, runs on the engine's one request kernel, bound by
:meth:`~repro.oram.path_oram.PathORAM._run_bins` (``docs/performance.md``,
"LAORAM bin kernel"), which cuts it into bins on global multiples of ``S``.
While a request's ids are exactly the installed plan's next addresses — a
replayed window always, a trainer that announced the stream it issues —
its whole plan bins take their remap leaves by position from the plan's
per-access next-path records
(:meth:`~repro.core.superblock.LookaheadPlan.take_bin_remaps`), instead of a
plan lookup per id.  Initial placement relocates only the planned blocks.

The per-object reference client in ``tests/oracle/laoram.py`` is written
from the paper and shares none of this: it plans its own windows, cuts its
own bins and looks every remap up; for a fixed seed both draw the same
leaves in the same order, pick the same write-back victims and count
bit-identical traffic (``docs/performance.md``, "Scheduling contract").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.oram.base import as_block_ids
from repro.oram.eviction import EvictionPolicy
from repro.oram.path_oram import PathORAM
from repro.core.config import LAORAMConfig
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan, num_bins


class LAORAMClient(PathORAM):
    """Look-ahead ORAM client (the paper's contribution)."""

    def __init__(
        self,
        config: LAORAMConfig,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        observer=None,
    ):
        if not isinstance(config, LAORAMConfig):
            raise ConfigurationError(
                f"{type(self).__name__} requires an LAORAMConfig"
            )
        super().__init__(config.oram, counter=counter, eviction=eviction, observer=observer)
        self.laoram_config = config
        # The bin paths come from the engine's one leaf stream, prefetched
        # draws first, so they are the leaves scalar draws would give.
        self.preprocessor = Preprocessor(
            superblock_size=config.superblock_size,
            num_leaves=config.oram.num_leaves,
            draw_leaves=self._draw_leaves,
        )
        self._plan: Optional[LookaheadPlan] = None
        self._trace_cursor = 0
        self._bins_by_position = 0
        self._bins_by_lookup = 0

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[LookaheadPlan]:
        """The lookahead plan currently guiding path reassignment."""
        return self._plan

    def set_plan(self, plan: LookaheadPlan) -> None:
        """Install a preprocessor-produced plan for subsequent accesses."""
        self._plan = plan
        self._bins_by_position = self._bins_by_lookup = 0

    @property
    def bins_by_position(self) -> int:
        """Bins since the plan was installed that took their remaps by position.

        A bin is served by position while the ids it is asked for are
        exactly the plan's next addresses.  A caller whose announced trace
        has drifted from the ids it issues reads 0 here and its bins under
        :attr:`bins_by_lookup`: remaps then cost a plan lookup per id and a
        superblock's blocks no longer meet on one path.
        """
        return self._bins_by_position

    @property
    def bins_by_lookup(self) -> int:
        """Bins since the plan was installed remapped id by id.

        Counts the bins of ``run_trace`` / ``access_many`` / ``write_many``;
        a single :meth:`access` counts in neither.
        """
        return self._bins_by_lookup

    def preprocess(self, addresses: Sequence[int] | np.ndarray, start_index: int = 0) -> LookaheadPlan:
        """Run the preprocessor over ``addresses`` and install the plan."""
        plan = self.preprocessor.build_plan(addresses, start_index=start_index)
        self.set_plan(plan)
        return plan

    # ------------------------------------------------------------------
    # Trace-level entry points
    # ------------------------------------------------------------------
    def run_trace(
        self,
        block_ids: Sequence[int] | np.ndarray,
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """Preprocess and replay a read trace at superblock granularity.

        When ``lookahead_accesses`` is set the trace is preprocessed in
        windows of that many accesses, modelling a preprocessor with bounded
        memory; otherwise the whole trace is planned at once.  The pipeline
        replays reads only: writes are served as they arrive, through
        :meth:`write_many`.

        On an engine that has served no access yet, the first window's plan
        is also applied to the initial data layout: the embedding table is
        loaded into the ORAM tree during trusted setup (before the adversary
        observes anything), so the client is free to choose each block's
        initial path, and choosing the path of the block's first planned
        superblock means even first-time accesses are coalesced.  Every bin
        path is still drawn uniformly and independently, so the observable
        access pattern is unchanged.  Later windows and later calls only
        plan.
        """
        if ops is not None or payloads is not None:
            raise ConfigurationError(
                "the lookahead pipeline replays read traces only; "
                "serve writes through write_many"
            )
        self._check_no_hold()
        addr = as_block_ids(block_ids)
        window = self.laoram_config.lookahead_accesses or max(addr.size, 1)
        served: list[Optional[object]] = []
        for offset in range(0, addr.size, window):
            chunk = addr[offset : offset + window]
            # An out-of-range id rejects the window before it is planned,
            # installed or placed (the preprocessor rejects negative ids
            # first thing), so a bad window leaves engine and plan as they
            # were.
            top = int(chunk.max())
            if top >= self.config.num_blocks:
                self._check_block_id(top)
            plan = self.preprocess(chunk, start_index=offset)
            if not self.counter.logical_accesses:
                self.apply_initial_placement(plan)
            # The window is served like any other request, from its first access.
            self._trace_cursor = plan.start_index
            served.extend(self._serve_request(plan.addresses))
        return served

    def access_many(self, block_ids: Sequence[int]) -> Sequence[Optional[object]]:
        """Serve reads now: ids are grouped into superblock-sized bins.

        Each consecutive group of ``superblock_size`` requested rows is
        served as one superblock, so blocks sharing a path cost a single
        fetch.  Bin boundaries are aligned to the global access index so
        they coincide with the boundaries the preprocessor used when
        planning the trace.  The embedding trainers' steps are read requests
        of :meth:`~repro.oram.base.ObliviousMemory.hold_many`.
        """
        return self._serve_request(as_block_ids(block_ids))

    def write_many(
        self, block_ids: Sequence[int], payloads: Sequence[object]
    ) -> None:
        """Serve writes now: like :meth:`access_many` but storing payloads.

        Rows sharing a path cost a single fetch, mirroring the read side.
        Duplicate ids within the batch keep the last payload.
        """
        ids = as_block_ids(block_ids)
        if ids.size != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        self._serve_request(ids, payloads)

    @property
    def trace_cursor(self) -> int:
        """Number of planned accesses consumed so far (plan lookup position)."""
        return self._trace_cursor

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def superblock_size(self) -> int:
        """Configured superblock size ``S``."""
        return self.laoram_config.superblock_size

    def describe(self) -> str:
        """Configuration label in the paper's notation (e.g. ``"Fat/S4"``)."""
        return self.laoram_config.describe()

    def client_memory_bytes(self) -> int:
        """Position map and stash, plus the installed plan's metadata.

        The trainer side holds what the preprocessor shipped for the window
        (Section IV-B): one (block id, future path) record per planned
        access, :meth:`LookaheadPlan.metadata_bytes`.
        """
        plan_bytes = self._plan.metadata_bytes() if self._plan is not None else 0
        return super().client_memory_bytes() + plan_bytes

    # ------------------------------------------------------------------
    # Trusted placement
    # ------------------------------------------------------------------
    def apply_initial_placement(self, plan: LookaheadPlan) -> None:
        """Move each planned block onto the path of its first planned bin.

        This is a trusted-setup operation (the same trust assumption PathORAM
        makes for its initial bulk load): it may only run before the first
        adversary-visible access, and it is not charged to the traffic
        counters.  Only the planned blocks move, so it costs what the plan
        names, not the table.  One rule, which keeps the layouts of the
        client and its reference slot-identical: every planned block is
        detached from the stash or from its bucket on its old path (the
        other occupants keep their order), then the blocks are placed in
        ascending id order, each as deep as possible on its new path given
        what is already there, and what does not fit enters the stash in
        that order.  The first planned occurrence of every placed block is
        marked consumed so the first in-trace reassignment cannot be handed
        the same leaf again (which an adversary could link).
        """
        if self.counter.logical_accesses:
            raise ConfigurationError(
                "initial placement can only be applied before any access"
            )
        block_ids, leaves = plan.take_first_occurrences(self.config.num_blocks)
        old_leaves = self.position_map.peek_many(block_ids)
        self.position_map.load_many(block_ids, leaves)
        # Which planned blocks are stashed is one ``isin`` against the
        # stash's residents (tens to hundreds, against up to every block
        # planned); those leave the stash, the rest leave their old buckets
        # in one level-by-level pass, and the per-level bulk placement
        # (which honours the buckets' current occupants and equals the
        # scalar place-as-deep-as-possible loop) puts them on their paths.
        stash = self.stash
        stashed = np.isin(block_ids, np.fromiter(stash.entries, np.int64, len(stash)))
        for block_id in block_ids[stashed].tolist():
            stash.pop(block_id)
        self.tree.remove_many(block_ids[~stashed], old_leaves[~stashed])
        overflow = self.tree.bulk_place_ordered(block_ids, leaves)
        stash.extend(overflow, self.position_map.peek_many(overflow))

    def _serve_request(
        self,
        block_ids: np.ndarray,
        payloads: Optional[Sequence[object]] = None,
    ) -> Sequence[Optional[object]]:
        """Run the request on the kernel, then touch the store once.

        The kernel cuts ``block_ids`` into bins ending on global multiples
        of ``S``.  While the client takes the request by position
        (:meth:`LookaheadPlan.follows`: one array equality), its whole plan
        bins carry the plan's remap leaves, one slice of its records
        (:meth:`LookaheadPlan.take_bin_remaps`); a trailing part bin, and
        every bin of any other request, is looked up in the plan id by id,
        which drops that plan to lookups for good.  How many bins went which
        way is added to the two counters once the request was served: a
        request that raised (and dropped the plan) counts nothing.

        A read is one gather taken after every bin has found its blocks in
        the stash: a fresh ``(len(block_ids), dim)`` matrix over a loaded
        payload matrix (:meth:`OverlayRowStore.gather`), a list over a dict.
        A write stores the payloads of the bins the kernel got through, in
        one scatter, in a ``finally``: a raise keeps the writes of the bins
        served before it.
        """
        self._check_no_hold()
        size = self.laoram_config.superblock_size
        first = self._trace_cursor
        plan = self._plan
        remaps, by_position = None, 0
        if plan is not None and plan.follows(first, block_ids):
            remaps, by_position = plan.take_bin_remaps(first, block_ids)
        try:
            if block_ids.size:
                self._run_bins(block_ids, size, remaps, by_position)
        finally:
            served = self._trace_cursor - first
            if payloads is not None and served:
                self._store_rows(block_ids[:served].tolist(), payloads[:served])
        self._bins_by_position += by_position
        self._bins_by_lookup += num_bins(block_ids.size, size, first) - by_position
        if payloads is not None:
            return None
        store = self._payloads
        if isinstance(store, dict):
            return list(map(store.get, block_ids.tolist()))
        return store.gather(block_ids)
