"""Array-backed LAORAM client: the vectorized twin of :class:`LAORAMClient`.

Combines :class:`~repro.core.laoram.LookaheadClientMixin` (plan management,
trace windowing, trace-level entry points) with the vectorized
:class:`~repro.oram.array_path_oram.ArrayPathORAM` storage engine.  The
superblock hot path avoids every per-block Python object: bins are consumed
as numpy slices straight from the plan (:meth:`LookaheadPlan.iter_bin_arrays`),
initial placement relocates only the planned blocks (one level-by-level
removal from their old buckets, one per-level bulk placement on their new
paths), and write-backs reuse the array engine's vectorized greedy planner.

The engine is decision-for-decision identical to the per-object client — it
draws from the RNG in the same order and picks the same write-back victims —
so a fixed seed yields bit-identical traffic counters on both backends while
running an order of magnitude faster (see
``benchmarks/bench_engine_throughput.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.oram.array_path_oram import ArrayPathORAM
from repro.core.laoram import LookaheadClientMixin
from repro.core.superblock import LookaheadPlan, SuperblockBin


class FastLAORAMClient(LookaheadClientMixin, ArrayPathORAM):
    """Look-ahead ORAM client over the array-backed execution engine."""

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def _execute_plan(
        self, plan: LookaheadPlan, addresses: np.ndarray
    ) -> Sequence[Optional[object]]:
        """Execute every bin of ``plan`` from its arrays (no bin objects).

        Block ids are range-checked once per window instead of once per bin
        (the preprocessor already rejected negative ids), the whole window's
        remap leaves are precomputed in one vectorized pass instead of
        per-access plan lookups, and the payloads are one gather after the
        last bin instead of a list per bin.
        """
        if plan.max_block_id >= self.config.num_blocks:
            self._check_block_id(plan.max_block_id)
        precomputed = plan.plan_bin_remaps()
        if precomputed is None:
            for start_index, block_ids, _ in plan.iter_bin_arrays():
                self._access_superblock_ids(
                    start_index, block_ids.tolist(), check_ids=False,
                    collect=False,
                )
        else:
            remaps, final_consumed = precomputed
            for bin_id, (start_index, block_ids, _) in enumerate(
                plan.iter_bin_arrays()
            ):
                self._access_superblock_ids(
                    start_index,
                    block_ids.tolist(),
                    check_ids=False,
                    remap_leaves=remaps[bin_id],
                    collect=False,
                )
            plan.apply_consumption(final_consumed)
        return self._gather_payloads(addresses.tolist())

    def _relocate(
        self, block_ids: np.ndarray, old_leaves: np.ndarray, new_leaves: np.ndarray
    ) -> None:
        """Vectorized relocation, slot-identical to the per-object client's.

        Stashed blocks leave their rows as holes, the rest leave their old
        buckets in one level-by-level pass, and the per-level bulk placement
        (which honours the buckets' current occupants and equals the scalar
        place-as-deep-as-possible loop) puts them on their new paths.
        """
        stash = self.stash
        rows = stash.row_of[block_ids]
        stashed = rows >= 0
        stash.remove_rows(rows[stashed], block_ids[stashed])
        self.tree.remove_many(block_ids[~stashed], old_leaves[~stashed])
        overflow = self.tree.bulk_place_ordered(block_ids, new_leaves)
        stash.append_rows(overflow, self.position_map.peek_many(overflow))

    # ------------------------------------------------------------------
    # Serve-now entry points
    # ------------------------------------------------------------------
    def access_many(self, block_ids: Sequence[int]) -> Sequence[Optional[object]]:
        """Bin-wise read (see :meth:`LookaheadClientMixin.access_many`).

        The result is one gather taken after every bin has found its blocks
        in the stash: ``(len(block_ids), dim)`` over a payload matrix.
        """
        ids = self._coerce_id_list(block_ids)
        self._serve_bins(ids)
        return self._gather_payloads(ids)

    def write_many(
        self, block_ids: Sequence[int], payloads: Sequence[object]
    ) -> None:
        """Bin-wise write (see :meth:`LookaheadClientMixin.write_many`).

        Over a payload matrix the rows are scattered in one assignment once
        every bin has found its blocks in the stash; duplicate ids keep the
        last payload.
        """
        store = self._payloads
        if isinstance(store, dict):
            super().write_many(block_ids, payloads)
            return
        ids = self._coerce_id_list(block_ids)
        if len(ids) != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        self._serve_bins(ids)
        # Fancy assignment leaves the winner among repeated indices
        # unspecified, so repeats are reduced to their last position first.
        last = dict(zip(ids, range(len(ids))))
        if len(last) == len(ids):
            store[ids] = payloads
        else:
            store[list(last)] = np.asarray(payloads)[list(last.values())]

    def _gather_payloads(self, block_ids: list[int]) -> Sequence[Optional[object]]:
        """Payloads of ``block_ids`` straight from the store (no traffic).

        One ``(len(block_ids), dim)`` fancy-index copy over a payload matrix,
        a list over a dict.
        """
        store = self._payloads
        if isinstance(store, dict):
            return list(map(store.get, block_ids))
        return store[block_ids]

    def _serve_bins(self, ids: list[int]) -> None:
        """Run ``ids`` as consecutive bins ending on superblock boundaries."""
        offset = 0
        while offset < len(ids):
            chunk = ids[offset : offset + self._next_bin_length()]
            self._access_superblock_ids(self._trace_cursor, chunk, collect=False)
            offset += len(chunk)

    def access_superblock(
        self,
        superblock: SuperblockBin,
        new_payloads: Optional[dict[int, object]] = None,
    ) -> list[Optional[object]]:
        """Serve every access of one superblock bin (object-level API)."""
        return self._access_superblock_ids(
            superblock.start_index, list(superblock.block_ids), new_payloads
        )

    def _access_superblock_ids(
        self,
        start_index: int,
        block_ids: list[int],
        new_payloads: Optional[dict[int, object]] = None,
        check_ids: bool = True,
        remap_leaves: Optional[list[int]] = None,
        collect: bool = True,
    ) -> list[Optional[object]]:
        """Serve one bin given its start index and id list.

        Mirrors ``LAORAMClient.access_superblock`` decision for decision:
        stash hits are free, missing blocks are grouped by current path in
        first-encounter order and each distinct path is fetched once, then
        every distinct block is remapped to its next planned occurrence.
        ``check_ids=False`` skips the per-id range check when the caller has
        already validated the whole window; ``remap_leaves`` supplies the
        bin's precomputed remap leaves (``-1`` = uniform fallback draw) in
        distinct-block first-occurrence order; ``collect=False`` skips
        building the per-access payload list when the caller gathers the
        payloads itself after its last bin.
        """
        self.counter.record_logical_access(len(block_ids))
        self.timing.charge_client_overhead(len(block_ids))

        needed = list(dict.fromkeys(block_ids))
        if check_ids:
            for block_id in needed:
                self._check_block_id(block_id)

        # Leaf lookups and remaps go through the map's own accessors (the
        # dense array's C calls, or the recursive map's charged walks):
        # every id was range-checked above and every new leaf comes from the
        # plan (range-checked below) or the engine RNG.
        _, get_leaf, set_leaf = self.position_map.leaf_access()
        stash = self.stash
        row_of = stash.row_of
        read_leaves: list[int] = []
        missing = [b for b in needed if row_of[b] < 0]
        self._stash_hits += len(needed) - len(missing)
        if missing:
            leaves: dict[int, None] = {}
            for block_id in missing:
                leaves.setdefault(get_leaf(block_id), None)
            read_leaves = list(leaves)
            self._read_paths_into_stash(read_leaves, dummy=False)
            for block_id in missing:
                if row_of[block_id] < 0:
                    raise BlockNotFoundError(
                        f"block {block_id} missing from both stash and its path"
                    )

        payloads: list[Optional[object]] = []
        if collect or new_payloads is not None:
            store = self._payloads
            payload_of = self._payload_of
            for block_id in block_ids:
                if new_payloads is not None and block_id in new_payloads:
                    store[block_id] = new_payloads[block_id]
                payloads.append(payload_of(block_id))

        # Remap every distinct block to its next planned occurrence.  The
        # stash mirrors each resident block's leaf, so both the position map
        # and the block's stash row are updated together.  Plan-supplied
        # leaves are range-checked (the dense accessor is the bare array
        # write) so a plan built for a different tree fails here, exactly
        # where the per-object client would.
        end_index = start_index + len(block_ids) - 1
        stash_leaves = stash.leaf_rows
        num_leaves = self.config.num_leaves
        if remap_leaves is None:
            for block_id in needed:
                leaf = self._planned_leaf(block_id, after_index=end_index)
                if not 0 <= leaf < num_leaves:
                    raise ConfigurationError(
                        f"planned leaf {leaf} outside [0, {num_leaves})"
                    )
                set_leaf(block_id, leaf)
                stash_leaves[row_of[block_id]] = leaf
        else:
            rng = self.rng
            for block_id, leaf in zip(needed, remap_leaves):
                if leaf < 0:
                    leaf = int(rng.integers(0, num_leaves))
                elif leaf >= num_leaves:
                    raise ConfigurationError(
                        f"planned leaf {leaf} outside [0, {num_leaves})"
                    )
                set_leaf(block_id, leaf)
                stash_leaves[row_of[block_id]] = leaf

        self._write_back_many(read_leaves)

        self._trace_cursor = end_index + 1
        self._maybe_background_evict()
        self.counter.observe_stash(len(stash))
        return payloads
