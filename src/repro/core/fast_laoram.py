"""Array-backed LAORAM client: the vectorized twin of :class:`LAORAMClient`.

Combines :class:`~repro.core.laoram.LookaheadClientMixin` (plan management,
trace windowing, trace-level entry points) with the vectorized
:class:`~repro.oram.array_path_oram.ArrayPathORAM` storage engine.  Every
bin, whichever entry point it came through, runs on one fused kernel
(:meth:`FastLAORAMClient._run_bins`, the LAORAM twin of
``ArrayStorageEngine._run_trace_fused``): it binds the stash's dict once per
call, a bin is dict membership, one ``fused_fetch`` per distinct path, an
in-place remap and one write-back kernel call per path read, and the access
and path counts are flushed once on exit.  Every request becomes bins the
way it does on the reference client (the mixin's ``_aligned_bins``); here,
while its ids are exactly the installed plan's next addresses — a replayed
window always, a trainer that announced the stream it issues — each bin
takes its remap leaves by position from the table the plan computes once
(:meth:`FastLAORAMClient._plan_position`), instead of a plan lookup per id.
Initial placement relocates only the planned blocks (one level-by-level
removal from their old buckets, one per-level bulk placement on their new
paths).

The engine is decision-for-decision identical to the per-object client — it
draws from the RNG in the same order and picks the same write-back victims —
so a fixed seed yields bit-identical traffic counters on both backends while
running an order of magnitude faster (see ``docs/performance.md``, "LAORAM
bin kernel").
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.oram.array_path_oram import ArrayPathORAM
from repro.oram.write_back import fused_fetch, fused_shared_write_back
from repro.core.laoram import Bin, LookaheadClientMixin
from repro.core.superblock import LookaheadPlan


class FastLAORAMClient(LookaheadClientMixin, ArrayPathORAM):
    """Look-ahead ORAM client over the array-backed execution engine."""

    # ------------------------------------------------------------------
    # Serving a request
    # ------------------------------------------------------------------
    def _plan_position(
        self, plan: LookaheadPlan, start_index: int, block_ids: list[int] | np.ndarray
    ) -> int:
        """By position while the request is the plan's next addresses.

        :meth:`LookaheadPlan.position_bin`: one array equality per call.
        """
        return plan.position_bin(start_index, block_ids)

    def _serve_request(
        self,
        block_ids: list[int] | np.ndarray,
        payloads: Optional[Sequence[object]] = None,
    ) -> Sequence[Optional[object]]:
        """Run the request's bins on the kernel, then touch the store once.

        A read is one gather taken after every bin has found its blocks in
        the stash: a fresh ``(len(block_ids), dim)`` matrix over a loaded
        payload matrix (:meth:`OverlayRowStore.gather`), a list over a dict.
        A write stores the payloads then, in one scatter.
        """
        self._run_bins(self._aligned_bins(block_ids))
        store = self._payloads
        if isinstance(store, dict):
            ids = block_ids if isinstance(block_ids, list) else block_ids.tolist()
            if payloads is None:
                return list(map(store.get, ids))
            store.update(zip(ids, payloads))
            return None
        if payloads is None:
            return store.gather(block_ids)
        store.scatter(block_ids, payloads)
        return None

    def _relocate(
        self, block_ids: np.ndarray, old_leaves: np.ndarray, new_leaves: np.ndarray
    ) -> None:
        """Vectorized relocation, slot-identical to the per-object client's.

        Which planned blocks are stashed is one ``isin`` against the
        stash's residents (tens to hundreds, against up to every block
        planned); those leave the stash, the rest leave their old buckets in
        one level-by-level pass, and the per-level bulk placement (which
        honours the buckets' current occupants and equals the scalar
        place-as-deep-as-possible loop) puts them on their new paths.
        """
        stash = self.stash
        stashed = np.isin(
            block_ids, np.fromiter(stash.entries, np.int64, len(stash))
        )
        for block_id in block_ids[stashed].tolist():
            stash.pop(block_id)
        self.tree.remove_many(block_ids[~stashed], old_leaves[~stashed])
        overflow = self.tree.bulk_place_ordered(block_ids, new_leaves)
        stash.extend(overflow, self.position_map.peek_many(overflow))

    # ------------------------------------------------------------------
    # The bin kernel
    # ------------------------------------------------------------------
    def _run_bins(self, bins: Iterable[Bin]) -> None:
        """Serve ``bins`` in order: the one place a superblock bin runs.

        Mirrors ``LAORAMClient.access_superblock`` decision for decision on
        the stash's dict (id -> leaf, insertion ordered as the reference
        stash is, so every write-back tie-break is the same): stash hits are
        free, the missing blocks are grouped by current path in
        first-encounter order and each distinct path is fetched once, every
        distinct block is remapped in place — to the bin's precomputed leaf,
        else to what the plan hands out, else (``-1`` or no plan) to the
        next leaf of the engine's one stream — and each path read is written
        back, path by path and occupancy-aware over the buckets they share.
        Background eviction runs inline.

        The stream's prefetched block is bound as locals, as in
        ``_run_trace_fused``: the fallback remaps and the dummy reads take
        their leaves from it, in the order the reference client's scalar
        draws come, and it is refilled with one ``integers`` call of
        ``LEAF_DRAW_BLOCK`` leaves.  Nothing here calls ``_draw_leaf`` or
        ``_planned_leaf``, which would hand out leaves the locals still hold.

        Access and path counts accumulate in locals.  One ``finally``
        stores the cursor and the leaf buffer and flushes the counts
        (``_flush_counts``), so a raise mid-window leaves the engine
        consistent and able to serve the next call: the capacity check runs
        after a path's blocks entered the stash, so an overflow loses
        nothing.  A raise also drops the plan — the plan counts the whole of
        the bin's precomputed remaps as handed out when only some were, and
        its lookups would no longer be the reference client's — so later
        remaps draw uniformly.
        """
        num_blocks = self.config.num_blocks
        num_leaves = self._num_leaves
        depth = self._depth
        tree = self.tree
        stash = self.stash
        counter = self.counter
        observer = self.observer
        capacity = stash.capacity
        should_trigger = self.eviction.should_trigger
        should_continue = self.eviction.should_continue
        plan = self._plan
        consume_next_leaf = None if plan is None else plan.consume_next_leaf
        rng_integers = self.rng.integers
        draw_block = self.LEAF_DRAW_BLOCK
        leaf_buf = self._leaf_buf
        leaf_pos = self._leaf_buf_pos

        tags, get_leaf, set_leaf = self.position_map.leaf_access()
        slots = tree.slot_view
        caps = tree.bucket_capacities
        level_base = tree.level_base
        node_base = self._node_base
        groups = self._level_groups
        occ = tree.occupancy_view
        read_ids = tree.read_path_ids
        fetch = fused_fetch
        write_back = fused_shared_write_back

        stash_map = stash.entries

        # Deferred counts, flushed in the finally below.
        logical = path_reads = path_writes = dummy_reads = episodes = hits = 0
        stash_peak = counter.stash_peak
        history = counter.stash_history if counter.record_stash_history else None
        cursor = self._trace_cursor

        try:
            for start_index, block_ids, bin_remaps in bins:
                count = len(block_ids)
                logical += count
                needed = list(dict.fromkeys(block_ids))
                missing = []
                for block_id in needed:
                    # oblivious: allow[OBL001] bounds check against the public
                    # num_blocks; invalid ids abort the run loudly
                    if block_id < 0 or block_id >= num_blocks:
                        raise BlockNotFoundError(
                            f"block {block_id} outside [0, {num_blocks})"
                        )
                    # oblivious: allow[OBL001] fused replay of the bin's
                    # stash-hit fast path — hits counted and charged the same
                    if block_id not in stash_map:
                        missing.append(block_id)
                hits += len(needed) - len(missing)

                read_leaves = ()
                # oblivious: allow[OBL001] a bin whose blocks are all stashed
                # fetches nothing: the modeled stash-hit behaviour
                if missing:
                    read_leaves = list(dict.fromkeys(map(get_leaf, missing)))
                    # oblivious: allow[OBL002] a bin fetches each distinct path
                    # its missing blocks sit on: the protocol's observable,
                    # every one a uniform independent draw (paper, Sec. VI)
                    for leaf in read_leaves:
                        fetch(read_ids, tags, stash_map, leaf)
                        path_reads += 1
                        if observer is not None:
                            observer.observe_path(leaf, dummy=False)
                        # oblivious: allow[OBL001] stash-capacity check:
                        # overflow is PathORAM's stated failure event and
                        # aborts the run
                        if capacity is not None and len(stash_map) > capacity:
                            raise StashOverflowError(
                                f"stash exceeded its capacity of {capacity} blocks"
                            )
                    for block_id in missing:
                        # oblivious: allow[OBL001] integrity check; aborts the run
                        if block_id not in stash_map:
                            raise BlockNotFoundError(
                                f"block {block_id} missing from both stash "
                                "and its path"
                            )

                # Remap every distinct block to its next planned occurrence,
                # in the position map and in the stash together.  Plan
                # leaves are range-checked (the dense accessor is the bare
                # array write) so a plan built for a different tree fails
                # here, exactly where the per-object client would.
                end_index = start_index + count - 1
                for position, block_id in enumerate(needed):
                    # oblivious: allow[OBL001] where the new leaf comes
                    # from is client-side: no traffic either way
                    if bin_remaps is not None:
                        leaf = bin_remaps[position]
                        # oblivious: allow[OBL001] no future occurrence
                        # planned: the uniform fallback draw, client-side
                        if leaf < 0:
                            leaf = None
                    elif consume_next_leaf is not None:
                        leaf = consume_next_leaf(block_id, end_index)
                    else:
                        leaf = None
                    # No planned occurrence, or no plan: the stream's next leaf.
                    if leaf is None:
                        if leaf_pos == len(leaf_buf):
                            leaf_buf = rng_integers(
                                0, num_leaves, size=draw_block
                            ).tolist()
                            leaf_pos = 0
                        leaf = leaf_buf[leaf_pos]
                        leaf_pos += 1
                    if not 0 <= leaf < num_leaves:
                        raise ConfigurationError(
                            f"planned leaf {leaf} outside [0, {num_leaves})"
                        )
                    set_leaf(block_id, leaf)
                    stash_map[block_id] = leaf

                # Path by path: a later path finds the buckets it shares
                # with an earlier one refilled.
                # oblivious: allow[OBL002] one write-back per path fetched
                # above: the same revealed count
                for leaf in read_leaves:
                    write_back(
                        stash_map, groups, caps, level_base, node_base,
                        slots, occ, depth, leaf,
                    )
                    path_writes += 1

                cursor = end_index + 1
                occupancy = len(stash_map)
                # oblivious: allow[OBL001] fused replay of the documented
                # occupancy-triggered background eviction policy
                if should_trigger(occupancy):
                    episodes += 1
                    dummies = 0
                    # oblivious: allow[OBL002] episode length tracks occupancy
                    # by design — same documented policy as the trigger
                    while should_continue(occupancy, dummies):
                        if leaf_pos == len(leaf_buf):
                            leaf_buf = rng_integers(
                                0, num_leaves, size=draw_block
                            ).tolist()
                            leaf_pos = 0
                        leaf = leaf_buf[leaf_pos]
                        leaf_pos += 1
                        fetch(read_ids, tags, stash_map, leaf)
                        dummy_reads += 1
                        if observer is not None:
                            observer.observe_path(leaf, dummy=True)
                        # oblivious: allow[OBL001] stash-capacity check:
                        # overflow aborts the run loudly
                        if capacity is not None and len(stash_map) > capacity:
                            raise StashOverflowError(
                                f"stash exceeded its capacity of {capacity} blocks"
                            )
                        write_back(
                            stash_map, groups, caps, level_base, node_base,
                            slots, occ, depth, leaf,
                        )
                        path_writes += 1
                        dummies += 1
                        occupancy = len(stash_map)

                # oblivious: allow[OBL001] client-side metrics (stash peak
                # tracking); no server traffic
                if occupancy > stash_peak:
                    stash_peak = occupancy
                if history is not None:
                    history.append(occupancy)
        except BaseException:
            self._plan = None
            raise
        finally:
            self._trace_cursor = cursor
            self._leaf_buf = leaf_buf
            self._leaf_buf_pos = leaf_pos
            self._flush_counts(
                logical, path_reads, path_writes, dummy_reads,
                stash_peak, episodes, hits,
            )
