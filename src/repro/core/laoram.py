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

Plan management, trace windowing, the trace-level entry points and the one
way a request becomes bins (:meth:`LookaheadClientMixin._aligned_bins`) live
in :class:`LookaheadClientMixin`, so the per-object client here and the
array-backed :class:`~repro.core.fast_laoram.FastLAORAMClient` share one
scheduling implementation.  They differ in how they serve the bins
(``_serve_request``: here :meth:`LAORAMClient.access_superblock` per bin, the
reference) and in where a bin's remap leaves come from (``_plan_position``):
the reference looks every id up in the plan, the array client takes a
conforming bin's leaves by position.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.oram.base import AccessOp
from repro.oram.engine import Bin
from repro.oram.eviction import EvictionPolicy
from repro.oram.path_oram import PathORAM
from repro.core.config import LAORAMConfig
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan


class LookaheadClientMixin:
    """Plan-driven scheduling shared by every LAORAM engine backend.

    The mixin owns the constructor, the preprocessor, the installed plan,
    the trace cursor and every trace-level entry point (``run_trace``,
    ``access_many``, ``write_many``) and cuts every request into bins
    (:meth:`_aligned_bins`).  Concrete engines provide the storage backend
    plus :meth:`_serve_request` and the :meth:`_relocate` primitive of
    :meth:`apply_initial_placement`.
    """

    laoram_config: LAORAMConfig

    def __init__(
        self,
        config: LAORAMConfig,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
    ):
        if not isinstance(config, LAORAMConfig):
            raise ConfigurationError(
                f"{type(self).__name__} requires an LAORAMConfig"
            )
        super().__init__(
            config.oram,
            counter=counter,
            eviction=eviction,
            rng=rng,
            observer=observer,
        )
        self._init_lookahead(config)

    def _init_lookahead(self, config: LAORAMConfig) -> None:
        if not isinstance(config, LAORAMConfig):
            raise ConfigurationError("LAORAM clients require an LAORAMConfig")
        self.laoram_config = config
        # The bin paths come from the engine's one leaf stream: the array
        # backend's prefetched draws are handed out first, so both backends
        # draw the same leaves in the same order.
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
        """Bins since the plan was installed that took its precomputed remaps.

        The array client serves a bin by position while the ids it is asked
        for are exactly the plan's next addresses.  A caller whose announced
        trace has drifted from the ids it issues reads 0 here and its bins
        under :attr:`bins_by_lookup`: remaps then cost a plan lookup per id
        and a superblock's blocks no longer meet on one path.
        """
        return self._bins_by_position

    @property
    def bins_by_lookup(self) -> int:
        """Bins since the plan was installed remapped id by id.

        Counts the bins of ``run_trace`` / ``access_many`` / ``write_many``;
        the per-object client looks every id up.
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
        addr = np.asarray(block_ids, dtype=np.int64)
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
            served.extend(self._execute_plan(plan))
        return served

    def _execute_plan(self, plan: LookaheadPlan) -> Sequence[Optional[object]]:
        """Serve the window ``plan`` was just built over, bin by bin.

        ``run_trace`` has range-checked the window before planning it.  The
        window is served like any other request, from the plan's first
        access.
        """
        self._trace_cursor = plan.start_index
        return self._serve_request(plan.addresses)

    def access_many(self, block_ids: Sequence[int]) -> Sequence[Optional[object]]:
        """Serve reads now: ids are grouped into superblock-sized bins.

        This is the entry point the embedding trainer uses: each consecutive
        group of ``superblock_size`` requested rows is served as one
        superblock, so blocks sharing a path cost a single fetch.  Bin
        boundaries are aligned to the global access index so they coincide
        with the boundaries the preprocessor used when planning the trace.
        """
        return self._serve_request(self._coerce_id_list(block_ids))

    def write_many(
        self, block_ids: Sequence[int], payloads: Sequence[object]
    ) -> None:
        """Serve writes now: like :meth:`access_many` but storing payloads.

        Gradient write-backs of a training minibatch go through here so that
        updated rows sharing a path cost a single fetch, mirroring the read
        side.  Duplicate ids within the batch keep the last payload.
        """
        ids = self._coerce_id_list(block_ids)
        if len(ids) != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        self._serve_request(ids, payloads)

    @staticmethod
    def _coerce_id_list(block_ids: Sequence[int]) -> list[int]:
        """Plain-int id list; bulk ``tolist`` for arrays, no per-element int()."""
        if isinstance(block_ids, np.ndarray):
            return block_ids.tolist()
        return [int(block_id) for block_id in block_ids]

    def _aligned_bins(self, block_ids: list[int] | np.ndarray) -> Iterator[Bin]:
        """Cut ``block_ids`` into consecutive bins ending on superblock boundaries.

        The one way a request becomes bins, on both clients.  A replayed
        window arrives as its int64 array and is converted bin by bin: a
        list of the whole window held through the run left
        ``replay_laoram``'s peak RSS up to 8 MiB higher.  While the client
        takes the request by position (:meth:`_plan_position`), every chunk
        that is a whole plan bin carries the plan's precomputed remap
        leaves; any other bin carries ``None`` and its ids are looked up in
        the plan one by one, which drops that plan to lookups for good.  How
        many bins went which way is added to the two counters once per
        call, after the last bin.
        """
        size = self.laoram_config.superblock_size
        cursor = self._trace_cursor
        plan = self._plan
        plan_stop = plan_bin = -1
        if plan is not None:
            plan_stop = plan.stop_index
            plan_bin = self._plan_position(plan, cursor, block_ids)
        bins = by_position = 0
        offset = 0
        is_list = isinstance(block_ids, list)
        while offset < len(block_ids):
            chunk = block_ids[offset : offset + size - cursor % size]
            if not is_list:
                chunk = chunk.tolist()
            offset += len(chunk)
            end = cursor + len(chunk)
            remaps = None
            # oblivious: allow[OBL001] client-side: where the new leaf comes
            # from; same traffic either way
            if plan_bin >= 0 and (end % size == 0 or end == plan_stop):
                remaps = plan.take_bin_remaps(plan_bin)
                plan_bin += 1
                by_position += 1
            bins += 1
            yield cursor, chunk, remaps
            cursor = end
        # Reached once the last bin has been served: a call that raised
        # (and dropped the plan) counts nothing.
        self._bins_by_position += by_position
        self._bins_by_lookup += bins - by_position

    def _plan_position(
        self, plan: LookaheadPlan, start_index: int, block_ids: list[int] | np.ndarray
    ) -> int:
        """The plan bin a request at ``start_index`` opens by position, or ``-1``.

        ``-1`` here: every bin looks its ids up in the plan.  The per-object
        client keeps that, because it is the oracle the array client's
        by-position remaps are checked against, and because its bins always
        look up: taking the table as well would hand each block the
        occurrence after the one the table already handed out.  The array
        client overrides this with :meth:`LookaheadPlan.position_bin`.
        """
        return -1

    @property
    def trace_cursor(self) -> int:
        """Number of planned accesses consumed so far (plan lookup position)."""
        return self._trace_cursor

    # ------------------------------------------------------------------
    # Single-access compatibility path
    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Single-block access (PathORAM semantics, plan-driven remapping)."""
        payload = super().access(block_id, op, new_payload)
        self._trace_cursor += 1
        return payload

    def _choose_new_leaf(self, block_id: int) -> int:
        return self._planned_leaf(block_id, after_index=self._trace_cursor)

    def _planned_leaf(self, block_id: int, after_index: int) -> int:
        """The plan's next leaf for ``block_id``, else the stream's next.

        A plan leaf is range-checked as it is decided, before any update: a
        plan built for another tree fails here on both clients.
        """
        if self._plan is not None:
            leaf = self._plan.consume_next_leaf(block_id, after_index)
            if leaf is not None:
                if not 0 <= leaf < self._num_leaves:
                    raise ConfigurationError(
                        f"planned leaf {leaf} outside [0, {self._num_leaves})"
                    )
                return leaf
        return self._draw_leaf()

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
        names, not the table.  One rule for both backends, which keeps their
        layouts slot-identical: every planned block is detached from the
        stash or from its bucket on its old path (the other occupants keep
        their order), then the blocks are placed in ascending id order, each
        as deep as possible on its new path given what is already there, and
        what does not fit enters the stash in that order.  The first planned
        occurrence of every placed block is marked consumed so the first
        in-trace reassignment cannot be handed the same leaf again (which an
        adversary could link).
        """
        if self.counter.logical_accesses:
            raise ConfigurationError(
                "initial placement can only be applied before any access"
            )
        block_ids, leaves = plan.take_first_occurrences(self.config.num_blocks)
        old_leaves = self.position_map.peek_many(block_ids)
        self.position_map.load_many(block_ids, leaves)
        self._relocate(block_ids, old_leaves, leaves)

    # Backend-specific operations -------------------------------------
    def _relocate(
        self, block_ids: np.ndarray, old_leaves: np.ndarray, new_leaves: np.ndarray
    ) -> None:
        """Detach ``block_ids`` (ascending) and place them on ``new_leaves``."""
        raise NotImplementedError

    def _serve_request(
        self,
        block_ids: list[int] | np.ndarray,
        payloads: Optional[Sequence[object]] = None,
    ) -> Sequence[Optional[object]]:
        """Serve ``block_ids`` from the cursor, bin by :meth:`_aligned_bins` bin.

        Returns the payloads read, in request order.  ``payloads`` (one per
        id) makes the request a write; repeated ids keep the last payload.
        A raise drops the plan, on both clients alike.
        """
        raise NotImplementedError


class LAORAMClient(LookaheadClientMixin, PathORAM):
    """Look-ahead ORAM client (the paper's contribution), per-object backend."""

    def _relocate(
        self, block_ids: np.ndarray, old_leaves: np.ndarray, new_leaves: np.ndarray
    ) -> None:
        """Scalar relocation: the reference the array client is checked against."""
        blocks = []
        for block_id, old_leaf, new_leaf in zip(
            block_ids.tolist(), old_leaves.tolist(), new_leaves.tolist()
        ):
            block = self._stash_detach(block_id)
            if block is None:
                block = self._remove_from_path(old_leaf, block_id)
            if block is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
            block.leaf = new_leaf
            blocks.append(block)
        self.stash.extend(
            [block for block in blocks if not self.tree.try_place_on_path(block)]
        )

    def _serve_request(
        self,
        block_ids: list[int] | np.ndarray,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """One :meth:`access_superblock` per bin; payloads are kept per bin."""
        first = self._trace_cursor
        served: list[Optional[object]] = []
        try:
            for start_index, ids, _ in self._aligned_bins(block_ids):
                updates = None
                if payloads is not None:
                    offset = start_index - first
                    updates = dict(zip(ids, payloads[offset : offset + len(ids)]))
                served.extend(self.access_superblock(ids, updates))
        except BaseException:
            self._plan = None
            raise
        return served

    def access_superblock(
        self,
        block_ids: list[int],
        new_payloads: Optional[dict[int, object]] = None,
    ) -> list[Optional[object]]:
        """Serve every access of one superblock bin, the next at the cursor.

        Returns the payloads in the bin's access order.  Path reads are
        deduplicated: blocks already in the stash cost nothing, and blocks
        sharing a path are fetched together.  ``new_payloads`` turns the
        corresponding accesses into writes (the payload is replaced before
        the block is written back).
        """
        needed = list(dict.fromkeys(block_ids))
        for block_id in needed:
            self._check_block_id(block_id)
        # Counted once every id passed the check: a rejected id is no access.
        self.counter.record_logical_access(len(block_ids))
        end_index = self._trace_cursor + len(block_ids) - 1

        # Decide every distinct block's next leaf first: the path of its
        # *next* planned occurrence (uniform random when the plan runs out).
        remaps = {b: self._planned_leaf(b, after_index=end_index) for b in needed}
        missing = [b for b in needed if b not in self.stash]
        hits = [b for b in needed if b in self.stash]
        self.counter.record_stash_hit(len(hits))

        # Path ORAM's order per missing block: the update returns the path it
        # sits on, read unless an earlier block of the bin read it already
        # (which brought the block in under its old label).  Each distinct
        # path is fetched exactly once; a raise leaves every block either
        # updated and stashed or untouched.
        read_leaves: list[int] = []
        for block_id in missing:
            leaf = self.position_map.update(block_id, remaps[block_id])
            if leaf not in read_leaves:
                read_leaves.append(leaf)
                self._read_path_into_stash(leaf, dummy=False)
            block = self.stash.get(block_id)
            if block is None:
                raise BlockNotFoundError(
                    f"block {block_id} missing from both stash and its path"
                )
            block.leaf = remaps[block_id]

        payloads: list[Optional[object]] = []
        for block_id in block_ids:
            block = self.stash.get(block_id)
            if new_payloads is not None and block_id in new_payloads:
                block.payload = new_payloads[block_id]
            payloads.append(block.payload)

        # The stash hits' updates follow the fetch, in the bin's order.
        for block_id in hits:
            self._update_leaf(block_id, remaps[block_id])

        # Path by path: a later write-back finds the buckets it shares with
        # an earlier one already refilled.
        for leaf in read_leaves:
            self._write_back(leaf)

        self._trace_cursor = end_index + 1
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payloads
