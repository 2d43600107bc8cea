"""Superblock bins and the lookahead plan produced by the preprocessor.

A *superblock bin* is a group of ``S`` consecutive future embedding-table
accesses that the preprocessor assigns to one uniformly random path.  The
*lookahead plan* is the metadata the preprocessor ships to the trainer GPU:
for every block it records, in trace order, which bin (and therefore which
path) each future occurrence belongs to.  When the client writes a block back
it asks the plan for the block's next occurrence and uses that bin's path as
the block's new position, so that by the time the bin is processed all of its
blocks sit on a single path.

The plan is stored as flat numpy arrays (occurrence indices and bin leaves
grouped by block id via one stable argsort) so that million-access windows
can be planned without per-access Python work.  :class:`SuperblockBin`
objects are materialised lazily and only for callers that want the
object-level view; the vectorized execution engine cuts its requests itself
and takes each bin's remap leaves by position
(:meth:`LookaheadPlan.position_bin`, :meth:`LookaheadPlan.take_bin_remaps`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


def num_bins(num_accesses: int, superblock_size: int, start_index: int = 0) -> int:
    """Bins a window of ``num_accesses`` starting at ``start_index`` is cut into.

    Bins end on global multiples of ``superblock_size``, so the count is
    that of the boundaries the window spans, not ``ceil(n / S)``.
    """
    if not num_accesses:
        return 0
    return -(-(start_index % superblock_size + num_accesses) // superblock_size)


def _split(values: list, counts: list[int]) -> list[list]:
    """Cut ``values`` into consecutive runs of ``counts`` elements."""
    runs = []
    position = 0
    for count in counts:
        runs.append(values[position : position + count])
        position += count
    return runs


@dataclass(frozen=True)
class SuperblockBin:
    """One group of consecutive future accesses sharing a path.

    Attributes:
        bin_id: Sequential id of the bin within the plan.
        start_index: Trace index of the first access in the bin.
        block_ids: The accessed block ids, in trace order (duplicates kept).
        leaf: The uniformly random path assigned to the bin.
    """

    bin_id: int
    start_index: int
    block_ids: tuple[int, ...]
    leaf: int

    @property
    def end_index(self) -> int:
        """Trace index of the last access in the bin."""
        return self.start_index + len(self.block_ids) - 1

    @property
    def unique_block_ids(self) -> tuple[int, ...]:
        """Distinct block ids in the bin, preserving first-occurrence order."""
        seen: dict[int, None] = {}
        for block_id in self.block_ids:
            seen.setdefault(block_id, None)
        return tuple(seen.keys())

    def __len__(self) -> int:
        return len(self.block_ids)


class LookaheadPlan:
    """Future-path metadata for a window of the access trace.

    Internally the plan keeps three parallel arrays sorted by ``(block id,
    occurrence index)``: the block id, the global trace index and the bin
    leaf of every planned access.  Per-block occurrence lookups are two
    ``searchsorted`` calls; no per-access Python objects are created.
    """

    def __init__(self, bins: Sequence[SuperblockBin], num_leaves: int):
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        bins = tuple(bins)
        if bins:
            ids = np.concatenate(
                [np.asarray(sb.block_ids, dtype=np.int64) for sb in bins]
            )
            occ = np.concatenate(
                [sb.start_index + np.arange(len(sb), dtype=np.int64) for sb in bins]
            )
            leaf = np.repeat(
                np.asarray([sb.leaf for sb in bins], dtype=np.int64),
                np.asarray([len(sb) for sb in bins], dtype=np.int64),
            )
        else:
            ids = occ = leaf = np.empty(0, dtype=np.int64)
        self._init_arrays(ids, occ, leaf, num_leaves)
        self._bins: Optional[tuple[SuperblockBin, ...]] = bins
        # Raw window arrays (only set by from_arrays; used for lazy bins).
        self._addresses: Optional[np.ndarray] = None
        self._bin_leaves: Optional[np.ndarray] = None
        self._superblock_size = 0
        self._start_index = 0

    @classmethod
    def from_arrays(
        cls,
        addresses: np.ndarray,
        bin_leaves: np.ndarray,
        superblock_size: int,
        num_leaves: int,
        start_index: int = 0,
    ) -> "LookaheadPlan":
        """Build a plan directly from a window's address and bin-leaf arrays.

        ``addresses`` is the access stream of the window and ``start_index``
        the trace position of its first access; ``bin_leaves`` holds one
        uniformly random leaf per bin.  Bins end on global multiples of
        ``superblock_size`` — where the clients cut the bins they execute,
        whatever the window — so a window that starts off a boundary opens
        with a short bin (:func:`num_bins` counts them).  This is the
        vectorized construction path the preprocessor uses: no
        :class:`SuperblockBin` objects are created until a caller asks for
        :attr:`bins`.
        """
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if superblock_size < 1:
            raise ValueError("superblock_size must be >= 1")
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        bin_leaves = np.ascontiguousarray(bin_leaves, dtype=np.int64)
        n = addresses.size
        expected_bins = num_bins(n, superblock_size, start_index)
        if bin_leaves.size != expected_bins:
            raise ValueError(
                f"need {expected_bins} bin leaves for {n} accesses, "
                f"got {bin_leaves.size}"
            )
        plan = cls.__new__(cls)
        occ = start_index + np.arange(n, dtype=np.int64)
        leaf = bin_leaves[occ // superblock_size - start_index // superblock_size]
        plan._init_arrays(addresses, occ, leaf, num_leaves)
        plan._bins = None
        plan._addresses = addresses
        plan._bin_leaves = bin_leaves
        plan._superblock_size = superblock_size
        plan._start_index = start_index
        return plan

    def _init_arrays(
        self,
        ids: np.ndarray,
        occ: np.ndarray,
        leaf: np.ndarray,
        num_leaves: int,
    ) -> None:
        self._num_leaves = num_leaves
        self._num_accesses = int(ids.size)
        # Group occurrences by block id with one stable sort; within a block
        # the occurrence indices stay in increasing trace order.
        order = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[order]
        self._sorted_occ = occ[order]
        self._sorted_leaf = leaf[order]
        self._uniq, self._starts = np.unique(self._sorted_ids, return_index=True)
        self._ends = np.append(self._starts[1:], self._sorted_ids.size)
        # Python-side mirrors for the per-access lookup path (next_leaf /
        # consume_next_leaf / occurrences): dict + bisect runs ~10x faster
        # than per-call searchsorted on tiny array views.  Built lazily: a
        # plan whose every bin is served by position (take_bin_remaps())
        # never pays the O(n) list/dict construction.
        self._occ_list: Optional[list[int]] = None
        self._leaf_list: Optional[list[int]] = None
        self._ranges: Optional[dict[int, tuple[int, int]]] = None
        # Highest occurrence index already handed out as a reassignment;
        # ensures every planned path is used as a reassignment at most once.
        # Read it through consumed_up_to: the bins served by position are
        # folded in only when somebody looks.
        self._consumed_up_to: dict[int, int] = {}
        # By-position state (from_arrays plans): the per-bin table of
        # plan_bin_remaps(), built on first use, and the bin whose turn it
        # is to take the table (-1 once a lookup has consumed anything: the
        # table's "next bin's leaf" is only right while every earlier
        # consumption was by position).
        self._bin_table: Optional[tuple[list[list[int]], list[list[tuple[int, int]]]]] = None
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
    def bins(self) -> tuple[SuperblockBin, ...]:
        """Every superblock bin in trace order (materialised on demand)."""
        if self._bins is None:
            self._bins = tuple(
                SuperblockBin(
                    bin_id=bin_id,
                    start_index=start_index,
                    block_ids=tuple(block_ids.tolist()),
                    leaf=leaf,
                )
                for bin_id, (start_index, block_ids, leaf) in enumerate(
                    self.iter_bin_arrays()
                )
            )
        return self._bins

    def iter_bin_arrays(self) -> Iterator[tuple[int, np.ndarray, int]]:
        """Yield ``(start_index, block_ids, leaf)`` per bin without objects.

        Block ids stay numpy slices of the window's address array.
        """
        if self._addresses is not None:
            size = self._superblock_size
            addresses = self._addresses
            leaves = self._bin_leaves.tolist()
            # Window offsets of the global boundaries: the first is at or
            # before the window's start, so the first bin may be short.
            cuts = range(-(self._start_index % size), addresses.size, size)
            for leaf, cut in zip(leaves, cuts):
                offset = max(cut, 0)
                yield (
                    self._start_index + offset,
                    addresses[offset : cut + size],
                    leaf,
                )
        else:
            for sb in self.bins:
                yield (
                    sb.start_index,
                    np.asarray(sb.block_ids, dtype=np.int64),
                    sb.leaf,
                )

    @property
    def num_leaves(self) -> int:
        """Number of paths the plan draws from."""
        return self._num_leaves

    @property
    def num_accesses(self) -> int:
        """Total number of accesses covered by the plan."""
        return self._num_accesses

    @property
    def start_index(self) -> int:
        """Trace index of the window's first access."""
        return self._start_index

    @property
    def stop_index(self) -> int:
        """Trace index one past the window's last access."""
        return self._start_index + self._num_accesses

    @property
    def max_block_id(self) -> int:
        """Largest block id planned in this window (``-1`` for an empty plan)."""
        return int(self._uniq[-1]) if self._uniq.size else -1

    def __len__(self) -> int:
        if self._bin_leaves is not None:
            return int(self._bin_leaves.size)
        return len(self.bins)

    def __iter__(self) -> Iterable[SuperblockBin]:
        return iter(self.bins)

    # ------------------------------------------------------------------
    def next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Path of the bin holding ``block_id``'s next occurrence after ``after_index``.

        Returns ``None`` when the block does not appear again within the
        planned window, in which case the client falls back to a uniformly
        random path (the plan then carries no information about the block).
        """
        occ_list, leaf_list, ranges = self._lookup_tables()
        bounds = ranges.get(block_id)
        if bounds is None:
            return None
        start, end = bounds
        pos = bisect_right(occ_list, after_index, start, end)
        if pos >= end:
            return None
        return leaf_list[pos]

    def consume_next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Like :meth:`next_leaf`, but each planned occurrence is used once.

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
        linkable repeated-leaf observation.
        """
        mask = (self._uniq >= 0) & (self._uniq < num_blocks)
        ids = self._uniq[mask]
        starts = self._starts[mask]
        consumed = self._consumed_up_to
        for block_id, occ in zip(ids.tolist(), self._sorted_occ[starts].tolist()):
            if consumed.get(block_id, -1) < occ:
                consumed[block_id] = occ
        return ids, self._sorted_leaf[starts]

    def plan_bin_remaps(
        self,
    ) -> Optional[tuple[list[list[int]], list[list[tuple[int, int]]]]]:
        """Every bin's remap leaves and what they consume, computed once.

        When the window is executed bin by bin, the sequence of
        ``consume_next_leaf`` calls is fully determined by the trace: each
        bin asks once per distinct block with ``after_index`` = the bin's end,
        so the answer is always the leaf of the block's *next* bin (or a
        uniform fallback when there is none).  That makes the whole window
        precomputable in a handful of array passes.

        Returns ``(remaps, consumed)``, one entry per bin: ``remaps[j]``
        lists, for bin ``j``'s distinct blocks in first-occurrence order, the
        next bin's leaf or ``-1`` (fallback draw); ``consumed[j]`` the
        ``(block_id, occurrence_index)`` pairs those answers hand out — what
        the equivalent ``consume_next_leaf`` calls would record.  Only
        available for plans built through :meth:`from_arrays`; returns
        ``None`` otherwise.  :meth:`take_bin_remaps` serves the table.
        """
        if self._addresses is None:
            return None
        if self._bin_table is None:
            self._bin_table = self._build_bin_table()
        return self._bin_table

    def _build_bin_table(self) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
        n = self._num_accesses
        size = self._superblock_size
        if n == 0:
            return [], []
        sid = self._sorted_ids
        socc = self._sorted_occ
        bin_idx = socc // size - self._start_index // size
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
            values[has_next] = self._bin_leaves[fb_bin[has_next + 1]]
            taken[has_next] = fb_occ[has_next + 1]
        # Bins are contiguous occurrence ranges, so sorting the entries by
        # occurrence groups them by bin in first-occurrence order.
        order = np.argsort(fb_occ, kind="stable")
        bins = fb_bin[order]
        remaps = _split(
            values[order].tolist(), np.bincount(bins, minlength=len(self)).tolist()
        )
        consuming = order[taken[order] >= 0]
        consumed = _split(
            list(zip(fb_block[consuming].tolist(), taken[consuming].tolist())),
            np.bincount(fb_bin[consuming], minlength=len(self)).tolist(),
        )
        return remaps, consumed

    def position_bin(self, start_index: int, block_ids: list[int] | np.ndarray) -> int:
        """The bin a call for ``block_ids`` at ``start_index`` opens by position.

        That is the index of the plan bin starting at ``start_index`` when
        it is the next one in line (every earlier bin took its remaps from
        the table and nothing was consumed by lookup) and ``block_ids`` are
        exactly the planned addresses from there on; ``-1`` otherwise.
        """
        offset = start_index - self._start_index
        size = self._superblock_size
        if (
            self._position_bin < 0
            or self._addresses is None
            or offset < 0
            # Bins open at the window's start and on the global boundaries.
            or (offset and start_index % size)
            or start_index // size - self._start_index // size != self._position_bin
        ):
            return -1
        if not np.array_equal(
            self._addresses[offset : offset + len(block_ids)], block_ids
        ):
            return -1
        self.plan_bin_remaps()
        return self._position_bin

    def take_bin_remaps(self, bin_index: int) -> list[int]:
        """Bin ``bin_index``'s remap leaves, by position.

        Valid for the bin :meth:`position_bin` named and the whole bins that
        follow it in the same call, in order.  What the bin consumes reaches
        :attr:`consumed_up_to` when that is next read: replacing a few
        entries of a large dict after every bin scatters freed ints over the
        heap, which cost the kernel running between the bins 10 % at 2^20
        blocks (``docs/performance.md``, "The training step").
        """
        self._position_bin = bin_index + 1
        return self._bin_table[0][bin_index]

    @property
    def consumed_up_to(self) -> dict[int, int]:
        """Block id -> highest planned occurrence handed out so far.

        Exact at every bin boundary: the bins served by position since the
        plan was built are folded in first, in order (idempotent, and
        nothing else writes while bins go by position).
        """
        if self._position_bin > 0:
            update = self._consumed_up_to.update
            for pairs in self._bin_table[1][: self._position_bin]:
                update(pairs)
        return self._consumed_up_to

    def occurrences(self, block_id: int) -> list[int]:
        """Trace indices at which ``block_id`` is accessed within the window."""
        occ_list, _, ranges = self._lookup_tables()
        bounds = ranges.get(block_id)
        if bounds is None:
            return []
        start, end = bounds
        return occ_list[start:end]

    def metadata_bytes(self) -> int:
        """Size of the (block id, future path) metadata the preprocessor ships.

        One (block id, path) pair per planned access.  The id field is sized
        by the widest planned block id and the path field by ``num_leaves``,
        both rounded up to whole bytes — a 2^25-leaf tree needs 4 path bytes,
        a 16-leaf test tree just one.
        """
        if self._num_accesses == 0:
            return 0
        max_id = int(self._uniq[-1]) if self._uniq.size else 0
        id_bytes = max(1, (max(max_id, 0).bit_length() + 7) // 8)
        leaf_bytes = max(1, ((self._num_leaves - 1).bit_length() + 7) // 8)
        return self._num_accesses * (id_bytes + leaf_bytes)
