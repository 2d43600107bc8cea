"""The lookahead plan: one window of the trace, cut into superblock bins.

A *superblock bin* is a group of ``S`` consecutive future embedding-table
accesses that the preprocessor assigns to one uniformly random path
(LAORAM, Sec. IV).  A :class:`LookaheadPlan` is one window of the trace in
that form: the window's addresses, the trace index of its first access and
one leaf per bin.  Bins end on global multiples of ``S``, so a window that
starts off a boundary opens with a short bin (:func:`num_bins`).

When the client writes a block back it gives the block the leaf of the bin
holding its next planned occurrence, so by the time a bin is served all of
its blocks sit on one path.  The plan holds the window as the preprocessor
ships it (Sec. IV-B): per access, where the same block occurs next, and
per bin, the leaf each of its distinct blocks leaves it for.  A request
that is exactly the plan's next addresses takes each bin's remaps from
those records by position (:meth:`LookaheadPlan.take_bin_remaps`, one
slice); any other looks its blocks up one by one
(:meth:`LookaheadPlan.consume_next_leaf`, a bisect built on its first
call).  :attr:`LookaheadPlan.consumed_up_to` is derived when read.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError


def num_bins(num_accesses: int, superblock_size: int, start_index: int = 0) -> int:
    """Bins a window of ``num_accesses`` starting at ``start_index`` is cut into.

    Bins end on global multiples of ``superblock_size``, so the count is
    that of the boundaries the window spans, not ``ceil(n / S)``.
    """
    if not num_accesses:
        return 0
    return -(-(start_index % superblock_size + num_accesses) // superblock_size)


class LookaheadPlan:
    """Future-path metadata for one window of the access trace.

    Attributes:
        addresses: The window's block ids in trace order (int64).
        bin_leaves: One uniformly random leaf per bin, in trace order.
        superblock_size: ``S``; bins end on its global multiples.
        num_leaves: Number of paths the leaves are drawn from.
        start_index: Trace index of the window's first access.
        next: Per access, the window offset of the same block's next
            occurrence, ``-1`` at the block's last (int64).
    """

    def __init__(
        self,
        addresses: np.ndarray,
        bin_leaves: np.ndarray,
        superblock_size: int,
        num_leaves: int,
        start_index: int = 0,
    ):
        if num_leaves < 2:
            raise ConfigurationError("num_leaves must be >= 2")
        if superblock_size < 1:
            raise ConfigurationError("superblock_size must be >= 1")
        self.addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        self.bin_leaves = np.ascontiguousarray(bin_leaves, dtype=np.int64)
        self.superblock_size = superblock_size
        self.num_leaves = num_leaves
        self.start_index = start_index
        n = self.addresses.size
        expected_bins = num_bins(n, superblock_size, start_index)
        if self.bin_leaves.size != expected_bins:
            raise ConfigurationError(
                f"need {expected_bins} bin leaves for {n} accesses, got {self.bin_leaves.size}"
            )
        # One stable sort groups the offsets by block id in trace order: an
        # entry's successor is its block's next occurrence unless it opens a run.
        order = np.argsort(self.addresses, kind="stable")
        ids = self.addresses[order]
        opens = np.ones(n, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=opens[1:])
        self.next = np.full(n, -1, dtype=np.int64)
        self.next[order[:-1]] = np.where(opens[1:], -1, order[1:])
        # Every planned id, ascending, with the offset of its first access.
        starts = np.flatnonzero(opens)
        self._first_ids, self._first_offsets = ids[starts], order[starts]
        del order, ids, opens, starts
        # Each bin's remaps, packed per bin in the order the bin's distinct
        # ids first occur, and where each bin's run starts.  An id's remap
        # is the leaf of the bin holding its next occurrence after its last
        # in the bin (``-1``: none): follow ``next`` from its first while
        # that stays in the bin, at most ``S - 1`` steps.
        bins = self._bin_of(np.arange(n))
        stays = self.next >= 0
        stays &= bins[self.next] == bins
        first = np.ones(n, dtype=bool)
        first[self.next[stays]] = False
        last = np.flatnonzero(first)
        del first
        self._bin_heads = np.zeros(expected_bins + 1, dtype=np.int64)
        np.cumsum(np.bincount(bins[last], minlength=expected_bins), out=self._bin_heads[1:])
        del bins
        moving = np.flatnonzero(stays[last])
        while moving.size:
            last[moving] = self.next[last[moving]]
            moving = moving[stays[last[moving]]]
        del stays
        later = self.next[last]
        del last
        self._bin_remaps = np.where(later >= 0, self.bin_leaves[self._bin_of(later)], -1)
        # Folded into the dict when read: the first occurrences placement took
        # and the offset the bins served by position reach (-1 after a lookup).
        self._consumed: dict[int, int] = {}
        self._placed: Optional[slice] = None
        self._served = 0
        # The per-id lookup's sorted keys and their leaves, built on first use.
        self._lookup: Optional[tuple[list[int], list[int]]] = None

    def _bin_of(self, offsets: np.ndarray) -> np.ndarray:
        """Index of the bin holding each window offset."""
        size = self.superblock_size
        return (self.start_index + offsets) // size - self.start_index // size

    @property
    def num_accesses(self) -> int:
        """Total number of accesses covered by the plan."""
        return int(self.addresses.size)

    @property
    def stop_index(self) -> int:
        """Trace index one past the window's last access."""
        return self.start_index + self.num_accesses

    @property
    def max_block_id(self) -> int:
        """Largest block id planned in this window (``-1`` for an empty plan)."""
        return int(self._first_ids[-1]) if self._first_ids.size else -1

    def __len__(self) -> int:
        return int(self.bin_leaves.size)

    def consume_next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Path of the bin holding ``block_id``'s next unconsumed occurrence.

        The occurrence searched for is the first after ``after_index`` that
        no earlier call handed out.  Returns ``None`` when the block does not
        appear again within the planned window, in which case the client
        falls back to a uniformly random path (the plan then carries no
        information about the block).

        Consecutive reassignments of the same block (for example a fetch
        immediately followed by a gradient write-back) must receive paths of
        *different* future occurrences, otherwise an adversary would observe
        the same leaf several times in close succession and could link those
        accesses.  Consuming occurrences makes every reassignment an
        independent uniform draw, exactly as in PathORAM.  The first call
        ends serving by position for this plan.
        """
        consumed = self.consumed_up_to
        self._served = -1
        # Sorted keys ``block id * span + occurrence``: one run per block.
        span = self.stop_index + 1
        if self._lookup is None:
            keys = np.sort(self.addresses * span + np.arange(self.start_index, self.stop_index))
            offsets = keys % span - self.start_index
            self._lookup = keys.tolist(), self.bin_leaves[self._bin_of(offsets)].tolist()
        keys, leaves = self._lookup
        base = block_id * span
        pos = bisect_right(keys, base + max(after_index, consumed.get(block_id, -1)))
        # The key found past the floor may open a later block's run.
        if pos == len(keys) or keys[pos] - base >= span:
            return None
        consumed[block_id] = keys[pos] - base
        return leaves[pos]

    def take_first_occurrences(self, num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Planned ids below ``num_blocks`` (ascending) and their first leaves.

        Trusted-setup placement starts block ``b`` on the path of the bin
        holding its first planned access, and marks that occurrence consumed
        (``consume_next_leaf(b, -1)`` per block): otherwise the first
        in-trace reassignment could be handed the *same* leaf again, a
        linkable repeated-leaf observation.  The taken prefix reaches
        :attr:`consumed_up_to` when that is read.
        """
        lo, hi = np.searchsorted(self._first_ids, (0, num_blocks)).tolist()
        # Calls differ only in the bound, so the widest covers the others.
        self._placed = slice(lo, max(hi, self._placed.stop if self._placed else 0))
        return self._first_ids[lo:hi], self.bin_leaves[self._bin_of(self._first_offsets[lo:hi])]

    def follows(self, start_index: int, block_ids: list[int] | np.ndarray) -> bool:
        """Whether a request for ``block_ids`` at ``start_index`` goes by position.

        It does while the request opens where the bins served by position
        end (no lookup has consumed anything yet) and ``block_ids`` are
        exactly the planned addresses from there on.
        """
        offset = start_index - self.start_index
        return 0 <= offset == self._served and np.array_equal(
            self.addresses[offset : offset + len(block_ids)], block_ids
        )

    def take_bin_remaps(self, start_index: int, block_ids: list[int]) -> list[int]:
        """Remap leaves of the plan bin ``block_ids`` at ``start_index``.

        One leaf per distinct id, in first-occurrence order: the leaf of the
        bin holding the id's next occurrence after its last position in the
        bin (``-1``: no later occurrence, a uniform fallback draw), one
        slice of the records built with the plan.  Valid for the whole bins
        of a request :meth:`follows` accepted, in order.  What the bin
        consumes reaches :attr:`consumed_up_to` when that is next read:
        replacing a few entries of a large dict after every bin scatters
        freed ints over the heap, which cost the kernel running between the
        bins 10 % at 2^20 blocks (``docs/performance.md``, "The training
        step").
        """
        self._served = start_index - self.start_index + len(block_ids)
        size = self.superblock_size
        index = start_index // size - self.start_index // size
        heads = self._bin_heads
        return self._bin_remaps[heads.item(index) : heads.item(index + 1)].tolist()

    @property
    def consumed_up_to(self) -> dict[int, int]:
        """Block id -> highest planned occurrence handed out so far.

        Exact at every bin boundary.  Reading it folds in what trusted
        placement took, then, for the bins served by position, ``next`` of
        each block's last position in a bin whose next occurrence lies in a
        later bin.  Once a lookup has consumed anything the dict is the
        live state.
        """
        consumed = self._consumed
        if self._placed is not None:
            # Nothing consumed of a block precedes its first occurrence.
            taken, self._placed = self._placed, None
            occurrences = (self.start_index + self._first_offsets[taken]).tolist()
            placed = dict(zip(self._first_ids[taken].tolist(), occurrences))
            self._consumed = consumed = placed | consumed
        if self._served > 0:
            later = self.next[: self._served]
            crossing = self._bin_of(later) > self._bin_of(np.arange(later.size))
            occurrences = (self.start_index + later[crossing]).tolist()
            consumed.update(zip(self.addresses[: later.size][crossing].tolist(), occurrences))
        return consumed

    def metadata_bytes(self) -> int:
        """Size of the (block id, future path) metadata the preprocessor ships.

        One (block id, path) pair per planned access.  The id field is sized
        by the widest planned block id and the path field by ``num_leaves``,
        both rounded up to whole bytes — a 2^25-leaf tree needs 4 path bytes,
        a 16-leaf test tree just one.
        """
        if not self.num_accesses:
            return 0
        id_bytes = max(1, (max(self.max_block_id, 0).bit_length() + 7) // 8)
        leaf_bytes = max(1, ((self.num_leaves - 1).bit_length() + 7) // 8)
        return self.num_accesses * (id_bytes + leaf_bytes)
