"""The per-object reference LAORAM client.

:class:`ObjectLAORAMClient` shares the library's plan management, trace
windowing and bin cutter (:class:`~repro.core.laoram.LookaheadClientMixin`)
and runs each bin as a per-object :meth:`~ObjectLAORAMClient.access_superblock`
on :class:`~oracle.engine.ObjectPathORAM`.  Every remap is looked up in the
plan id by id (it never takes a bin's remap leaves by position), and
a single :meth:`~ObjectLAORAMClient.access` is the per-access protocol with
the plan's next leaf.  It is the oracle the shipped
:class:`~repro.core.laoram.LAORAMClient` is held to.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.laoram import LookaheadClientMixin
from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.oram.base import AccessOp

from oracle.engine import ObjectPathORAM


class ObjectLAORAMClient(LookaheadClientMixin, ObjectPathORAM):
    """Look-ahead ORAM client, per-object backend: the reference."""

    # ------------------------------------------------------------------
    # The per-access protocol, plan-driven
    # ------------------------------------------------------------------
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Single-block access (PathORAM semantics, plan-driven remapping).

        A raise past the id check drops the plan, as a raise in a bin does.
        """
        self._check_block_id(block_id)
        try:
            return super().access(block_id, op, new_payload)
        except BaseException:
            self._plan = None
            raise

    def _choose_new_leaf(self, block_id: int) -> int:
        return self._planned_leaf(block_id, after_index=self._trace_cursor)

    def _planned_leaf(self, block_id: int, after_index: int) -> int:
        """The plan's next leaf for ``block_id``, else the stream's next.

        A plan leaf is range-checked as it is decided, before any update: a
        plan built for another tree fails here, as it fails in the kernel.
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
    # Superblock bins
    # ------------------------------------------------------------------
    def _follows_plan(
        self, plan, start_index: int, block_ids: list[int] | np.ndarray
    ) -> bool:
        """Never: every bin looks its ids up in the plan.

        The reference keeps that, because it is the oracle the shipped
        client's by-position remaps are checked against, and because its
        bins always look up: taking the remaps by position as well would
        hand each block the occurrence after the one already handed out.
        """
        return False

    def _relocate(
        self, block_ids: np.ndarray, old_leaves: np.ndarray, new_leaves: np.ndarray
    ) -> None:
        """Scalar relocation: the reference the shipped client is checked against."""
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
