"""Array-backed LAORAM client: the vectorized twin of :class:`LAORAMClient`.

Combines :class:`~repro.core.laoram.LookaheadClientMixin` (plan management,
trace windowing, trace-level entry points) with the vectorized
:class:`~repro.oram.array_path_oram.ArrayPathORAM` storage engine.  Every
bin, whichever entry point it came through, runs on the array engine's one
trace kernel, :meth:`~repro.oram.engine.ArrayStorageEngine._run_bins` —
the kernel ArrayPathORAM runs its one-id bins on: it binds the stash's dict
once per call, a bin is dict membership, one ``fused_fetch`` per distinct
path, an in-place remap and one write-back kernel call per path read, and
the access and path counts are flushed once on exit.  Every request becomes
bins the way it does on the reference client (the mixin's
``_aligned_bins``); here, while its ids are exactly the installed plan's
next addresses — a replayed window always, a trainer that announced the
stream it issues — each bin takes its remap leaves by position from the
table the plan computes once (:meth:`FastLAORAMClient._plan_position`),
instead of a plan lookup per id.  Initial placement relocates only the
planned blocks (one level-by-level removal from their old buckets, one
per-level bulk placement on their new paths).

The engine is decision-for-decision identical to the per-object client — it
draws from the RNG in the same order and picks the same write-back victims —
so a fixed seed yields bit-identical traffic counters on both backends while
running an order of magnitude faster (see ``docs/performance.md``, "LAORAM
bin kernel").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.oram.array_path_oram import ArrayPathORAM
from repro.core.laoram import LookaheadClientMixin
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
        A write stores the payloads of the bins the kernel got through, in
        one scatter, in a ``finally``: a raise keeps the writes of the bins
        served before it, as the reference client's per-bin writes do.
        """
        first = self._trace_cursor
        try:
            self._run_bins(self._aligned_bins(block_ids))
        finally:
            served = self._trace_cursor - first
            if payloads is not None and served:
                ids, rows = block_ids[:served], payloads[:served]
                store = self._payloads
                if isinstance(store, dict):
                    store.update(zip(ids, rows))
                else:
                    store.scatter(ids, rows)
        if payloads is not None:
            return None
        store = self._payloads
        if isinstance(store, dict):
            ids = block_ids if isinstance(block_ids, list) else block_ids.tolist()
            return list(map(store.get, ids))
        return store.gather(block_ids)

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
