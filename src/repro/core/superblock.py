"""The lookahead plan: one window of the trace, cut into superblock bins.

A *superblock bin* is a group of ``S`` consecutive future embedding-table
accesses that the preprocessor assigns to one uniformly random path
(LAORAM, Sec. IV).  A :class:`LookaheadPlan` is one window of the trace in
that form: the window's addresses, the trace index of its first access and
one leaf per bin.  Bins end on global multiples of ``S``, so a window that
starts off a boundary opens with a short bin (:func:`num_bins`).

When the client writes a block back it gives the block the leaf of the bin
holding its next planned occurrence, so by the time a bin is served all of
its blocks sit on one path.  The plan answers that two ways: per block
(:meth:`LookaheadPlan.consume_next_leaf`, a bisect over the window grouped
by block id) and, for a request that is exactly the plan's next addresses,
per bin by position (:meth:`LookaheadPlan.position_bin`,
:meth:`LookaheadPlan.take_bin_remaps`) from a :class:`BinTable` computed
once per window.  The plan is held at its width: the table is flat arrays
with bin offsets, and the consumption state
(:attr:`LookaheadPlan.consumed_up_to`) becomes a dict only when it is read,
so a window served wholly by position holds no per-access Python object.
The per-block lookup builds its lists and dict on its first call.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

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


def _bin_offsets(bin_of: np.ndarray, count: int) -> np.ndarray:
    """Offsets of ``count`` bins into an array whose entries are in bin order."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(bin_of, minlength=count), out=offsets[1:])
    return offsets


class BinTable(NamedTuple):
    """Every bin's remap leaves and what they consume, flat in bin order.

    Bin ``j``'s remap leaves are ``leaves[leaf_offsets[j]:leaf_offsets[j + 1]]``
    (int64, ``-1`` for a uniform fallback draw); the ``(block id,
    occurrence index)`` pairs it consumes are the same slice of
    ``consumed_ids`` and ``consumed_occ`` under ``consumed_offsets``.
    """

    leaves: np.ndarray
    leaf_offsets: np.ndarray
    consumed_ids: np.ndarray
    consumed_occ: np.ndarray
    consumed_offsets: np.ndarray


class LookaheadPlan:
    """Future-path metadata for one window of the access trace.

    Attributes:
        addresses: The window's block ids in trace order (int64).
        bin_leaves: One uniformly random leaf per bin, in trace order.
        superblock_size: ``S``; bins end on its global multiples.
        num_leaves: Number of paths the leaves are drawn from.
        start_index: Trace index of the window's first access.

    For per-block lookups the plan also keeps three parallel arrays sorted
    by ``(block id, occurrence index)``: the block id, the global trace
    index and the bin leaf of every planned access.  Everything else it
    holds per planned access is an array as well (the :class:`BinTable`, the
    first occurrences trusted placement took) until a per-block lookup or a
    reader of :attr:`consumed_up_to` asks for Python containers.
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
                f"need {expected_bins} bin leaves for {n} accesses, "
                f"got {self.bin_leaves.size}"
            )
        occ = start_index + np.arange(n, dtype=np.int64)
        leaf = self.bin_leaves[occ // superblock_size - start_index // superblock_size]
        # Group occurrences by block id with one stable sort; within a block
        # the occurrence indices stay in increasing trace order.
        order = np.argsort(self.addresses, kind="stable")
        self._sorted_ids = self.addresses[order]
        self._sorted_occ = occ[order]
        self._sorted_leaf = leaf[order]
        self._uniq, self._starts = np.unique(self._sorted_ids, return_index=True)
        self._ends = np.append(self._starts[1:], n)
        # Python-side mirrors for the per-access lookup path
        # (consume_next_leaf): dict + bisect runs ~10x faster than per-call
        # searchsorted on tiny array views.  Built lazily: a plan whose every
        # bin is served by position (take_bin_remaps()) never pays the O(n)
        # list/dict construction.
        self._occ_list: Optional[list[int]] = None
        self._leaf_list: Optional[list[int]] = None
        self._ranges: Optional[dict[int, tuple[int, int]]] = None
        # Highest occurrence index already handed out as a reassignment;
        # ensures every planned path is used as a reassignment at most once.
        # Read it through consumed_up_to: what trusted placement took (the
        # two arrays of take_first_occurrences) and the bins served by
        # position are folded in only when somebody looks.
        self._consumed_up_to: dict[int, int] = {}
        self._first_taken: Optional[tuple[np.ndarray, np.ndarray]] = None
        # By-position state: the table of plan_bin_remaps(), built on first
        # use, and the bin whose turn it is to take the table (-1 once a
        # lookup has consumed anything: the table's "next bin's leaf" is
        # only right while every earlier consumption was by position).
        self._bin_table: Optional[BinTable] = None
        self._position_bin = 0

    def _lookup_tables(
        self,
    ) -> tuple[list[int], list[int], dict[int, tuple[int, int]]]:
        """Occurrence/leaf lists and per-block ranges for bisect lookups."""
        if self._ranges is None:
            self._occ_list = self._sorted_occ.tolist()
            self._leaf_list = self._sorted_leaf.tolist()
            self._ranges = dict(
                zip(
                    self._uniq.tolist(),
                    zip(self._starts.tolist(), self._ends.tolist()),
                )
            )
        return self._occ_list, self._leaf_list, self._ranges

    # ------------------------------------------------------------------
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
        return int(self._uniq[-1]) if self._uniq.size else -1

    def __len__(self) -> int:
        return int(self.bin_leaves.size)

    # ------------------------------------------------------------------
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
        independent uniform draw, exactly as in PathORAM.
        """
        consumed = self.consumed_up_to
        self._position_bin = -1
        occ_list, leaf_list, ranges = self._lookup_tables()
        bounds = ranges.get(block_id)
        if bounds is None:
            return None
        start, end = bounds
        floor = max(after_index, consumed.get(block_id, -1))
        pos = bisect_right(occ_list, floor, start, end)
        if pos >= end:
            return None
        consumed[block_id] = occ_list[pos]
        return leaf_list[pos]

    def take_first_occurrences(self, num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Planned ids below ``num_blocks`` (ascending) and their first leaves.

        Trusted-setup placement starts block ``b`` on the path of the bin
        holding its first planned access, and marks that occurrence consumed
        (``consume_next_leaf(b, -1)`` per block): otherwise the first
        in-trace reassignment could be handed the *same* leaf again, a
        linkable repeated-leaf observation.  The ids and their first
        occurrences are kept as they are and reach :attr:`consumed_up_to`
        when that is read.
        """
        mask = (self._uniq >= 0) & (self._uniq < num_blocks)
        ids = self._uniq[mask]
        starts = self._starts[mask]
        # Calls differ only in the bound, so the widest covers the others.
        if self._first_taken is None or ids.size > self._first_taken[0].size:
            self._first_taken = ids, self._sorted_occ[starts]
        return ids, self._sorted_leaf[starts]

    def plan_bin_remaps(self) -> BinTable:
        """Every bin's remap leaves and what they consume, computed once.

        When the window is executed bin by bin, the sequence of
        ``consume_next_leaf`` calls is fully determined by the trace: each
        bin asks once per distinct block with ``after_index`` = the bin's end,
        so the answer is always the leaf of the block's *next* bin (or a
        uniform fallback when there is none).  That makes the whole window
        precomputable in a handful of array passes.

        Bin ``j``'s slice of the :class:`BinTable` lists, for its distinct
        blocks in first-occurrence order, the next bin's leaf or ``-1``
        (fallback draw), and the ``(block id, occurrence index)`` pairs those
        answers hand out — what the equivalent ``consume_next_leaf`` calls
        would record.  :meth:`take_bin_remaps` serves the table.
        """
        if self._bin_table is None:
            self._bin_table = self._build_bin_table()
        return self._bin_table

    def _build_bin_table(self) -> BinTable:
        n = self.num_accesses
        size = self.superblock_size
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            no_bins = _bin_offsets(empty, 0)
            return BinTable(empty, no_bins, empty, empty, no_bins)
        sid = self._sorted_ids
        socc = self._sorted_occ
        bin_idx = socc // size - self.start_index // size
        # First occurrence of each (block, bin) pair, in (block, occ) order.
        block_boundary = np.empty(n, dtype=bool)
        block_boundary[0] = True
        np.not_equal(sid[1:], sid[:-1], out=block_boundary[1:])
        bin_boundary = np.empty(n, dtype=bool)
        bin_boundary[0] = True
        bin_boundary[1:] = block_boundary[1:] | (bin_idx[1:] != bin_idx[:-1])
        first = np.nonzero(bin_boundary)[0]
        fb_block = sid[first]
        fb_bin = bin_idx[first]
        fb_occ = socc[first]
        entries = first.size
        # An entry whose successor is the same block's next bin is remapped
        # to that bin's leaf and consumes that bin's first occurrence.
        values = np.full(entries, -1, dtype=np.int64)
        taken = np.full(entries, -1, dtype=np.int64)
        if entries > 1:
            has_next = np.nonzero(fb_block[1:] == fb_block[:-1])[0]
            values[has_next] = self.bin_leaves[fb_bin[has_next + 1]]
            taken[has_next] = fb_occ[has_next + 1]
        # Bins are contiguous occurrence ranges, so sorting the entries by
        # occurrence groups them by bin in first-occurrence order.
        order = np.argsort(fb_occ, kind="stable")
        consuming = order[taken[order] >= 0]
        return BinTable(
            leaves=values[order],
            leaf_offsets=_bin_offsets(fb_bin, len(self)),
            consumed_ids=fb_block[consuming],
            consumed_occ=taken[consuming],
            consumed_offsets=_bin_offsets(fb_bin[consuming], len(self)),
        )

    def position_bin(self, start_index: int, block_ids: list[int] | np.ndarray) -> int:
        """The bin a call for ``block_ids`` at ``start_index`` opens by position.

        That is the index of the plan bin starting at ``start_index`` when
        it is the next one in line (every earlier bin took its remaps from
        the table and nothing was consumed by lookup) and ``block_ids`` are
        exactly the planned addresses from there on; ``-1`` otherwise.
        """
        offset = start_index - self.start_index
        size = self.superblock_size
        if (
            self._position_bin < 0
            or offset < 0
            # Bins open at the window's start and on the global boundaries.
            or (offset and start_index % size)
            or start_index // size - self.start_index // size != self._position_bin
        ):
            return -1
        if not np.array_equal(
            self.addresses[offset : offset + len(block_ids)], block_ids
        ):
            return -1
        self.plan_bin_remaps()
        return self._position_bin

    def take_bin_remaps(self, bin_index: int) -> list[int]:
        """Bin ``bin_index``'s remap leaves, by position, as a list.

        Valid for the bin :meth:`position_bin` named and the whole bins that
        follow it in the same call, in order.  What the bin consumes reaches
        :attr:`consumed_up_to` when that is next read: replacing a few
        entries of a large dict after every bin scatters freed ints over the
        heap, which cost the kernel running between the bins 10 % at 2^20
        blocks (``docs/performance.md``, "The training step").
        """
        self._position_bin = bin_index + 1
        table = self._bin_table
        offsets = table.leaf_offsets
        return table.leaves[offsets[bin_index] : offsets[bin_index + 1]].tolist()

    @property
    def consumed_up_to(self) -> dict[int, int]:
        """Block id -> highest planned occurrence handed out so far.

        Exact at every bin boundary, and built only when read: what trusted
        placement took, then the pairs of the bins served by position, in
        bin order, are folded into the dict first (idempotent, and nothing
        else writes while bins go by position).  Once a lookup has consumed
        anything the dict is the live state.
        """
        consumed = self._consumed_up_to
        if self._first_taken is not None:
            ids, occurrences = self._first_taken
            self._first_taken = None
            for block_id, occ in zip(ids.tolist(), occurrences.tolist()):
                if consumed.get(block_id, -1) < occ:
                    consumed[block_id] = occ
        if self._position_bin > 0:
            table = self._bin_table
            served = table.consumed_offsets[self._position_bin]
            consumed.update(
                zip(table.consumed_ids[:served].tolist(), table.consumed_occ[:served].tolist())
            )
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
