"""The reference position map: dicts, and Path ORAM's recursion walked naively.

Path ORAM stores the map of ``n`` blocks recursively (Stefanov et al.,
CCS'13, Sec. 4): level ``k`` holds ``m_k = ceil(m_{k-1} / chi)`` blocks
(``m_0 = n``), level-``k`` block ``j`` carries the labels of level-``(k-1)``
entries ``j*chi .. j*chi + chi - 1``, and levels are added while the map
below, at four bytes a label, exceeds the client's budget.  The client holds
the labels of the last level's blocks (the top map).

Here every map is a plain dict: ``maps[0]`` the logical labels, ``maps[k]``
the labels of level ``k``'s blocks (what level ``k + 1`` packs), the last
one the top map.  Each level is a small Path ORAM of its own over
:class:`~oracle.tree.TreeStorage` buckets of four slots, a
:class:`~oracle.stash.Stash` and the greedy write-back, with no background
eviction.  A walk goes top-down: at each level the block holding the next
label is fetched (a path read unless it is stashed), takes its fresh label,
hands out its child's old label and a fresh one in its place, and is
written back after a path read.  Level 1's child label is the logical one,
which the engine draws and :meth:`ObjectPositionMap.update` installs.

Random draws: the logical labels are one draw of ``n`` leaves from the
engine's generator; level ``k`` draws from the ``k``-th generator of
``spawn_rngs(seed, levels)``, first its blocks' initial labels, then one
fresh label at a time.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError, IntegrityError
from repro.utils.bits import required_depth
from repro.utils.rng import spawn_rngs

from oracle.block import Block
from oracle.stash import Stash
from oracle.tree import TreeStorage
from oracle.write_back import plan_greedy_write_back

#: Bytes of one stored leaf label.
LABEL_BYTES = 4
#: Slots per bucket of every recursion tree.
LEVEL_BUCKET_SIZE = 4


def level_sizes(num_blocks: int, chi: int, cutoff_bytes) -> list[int]:
    """Blocks of each recursion level, level 1 first (``[]``: a dense map)."""
    sizes = []
    entries = num_blocks
    while cutoff_bytes is not None and entries * LABEL_BYTES > cutoff_bytes and entries > 1:
        entries = -(-entries // chi)
        sizes.append(entries)
    return sizes


class RecursionLevel:
    """One recursion level: a tree of label blocks and its stash."""

    def __init__(self, num_blocks: int, chi: int, metadata_bytes: int, rng):
        depth = required_depth(num_blocks)
        self.num_blocks = num_blocks
        self.num_leaves = 1 << depth
        self.tree = TreeStorage(
            depth, [LEVEL_BUCKET_SIZE] * (depth + 1), chi * LABEL_BYTES, metadata_bytes
        )
        self.stash = Stash()
        self.rng = rng
        initial = rng.integers(0, self.num_leaves, size=num_blocks, dtype=np.int64)
        for block_id, leaf in enumerate(initial.tolist()):
            block = Block(block_id=block_id, leaf=leaf)
            if not self.tree.try_place_on_path(block):
                self.stash.add(block)
        #: Labels of this level's blocks, as the level above packs them.
        self.initial_labels = dict(enumerate(initial.tolist()))

    @property
    def labels(self) -> np.ndarray:
        """Each block's leaf as the block itself carries it, by block id."""
        labels = np.empty(self.num_blocks, dtype=np.int64)
        for block in chain(self.tree.iter_blocks(), self.stash):
            labels[block.block_id] = block.leaf
        return labels

    def draw(self) -> int:
        """A fresh label for one of this level's blocks."""
        return int(self.rng.integers(0, self.num_leaves))


class ObjectPositionMap:
    """Block id -> leaf: a dict, or a dict per recursion level and a top map."""

    def __init__(self, config, rng, counter):
        self.counter = counter
        self._num_blocks = config.num_blocks
        self._num_leaves = config.num_leaves
        self._chi = config.posmap_positions_per_block
        cutoff = config.posmap_cutoff_bytes if config.recursive_posmap else None
        sizes = level_sizes(config.num_blocks, self._chi, cutoff)
        initial = rng.integers(0, config.num_leaves, size=config.num_blocks, dtype=np.int64)
        self._levels = [
            RecursionLevel(size, self._chi, config.metadata_bytes_per_block, level_rng)
            for size, level_rng in zip(sizes, spawn_rngs(config.seed, len(sizes)))
        ]
        self._maps = [dict(enumerate(initial.tolist()))]
        self._maps += [level.initial_labels for level in self._levels]
        self._entries = self._maps[0]
        #: The map the client holds: the logical one, or the last level's.
        self._top = self._maps[-1]

    # -- the protocol's access ------------------------------------------
    def update(self, block_id: int, leaf: int) -> int:
        """Install ``leaf`` for ``block_id``; returns the label it replaces."""
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(f"leaf {leaf} outside [0, {self._num_leaves})")
        old = self._walk(block_id) if self._levels else self._entries[block_id]
        self._entries[block_id] = leaf
        return old

    def _walk(self, block_id: int) -> int:
        """One top-down pass through every level; returns the logical label."""
        chi, maps = self._chi, self._maps
        top_level = len(self._levels)
        index = block_id // chi**top_level
        leaf = self._top[index]
        fresh = self._levels[-1].draw()
        self._top[index] = fresh
        for k in range(top_level, 0, -1):
            level = self._levels[k - 1]
            block_index = block_id // chi**k
            hit = block_index in level.stash
            if not hit:
                level.stash.extend(level.tree.read_path(leaf))
                self.counter.record_posmap_path_read(*level.tree.path_cost)
                if block_index not in level.stash:
                    raise IntegrityError(
                        f"recursion level {k} block {block_index} missing from "
                        f"both stash and path {leaf}"
                    )
            level.stash.get(block_index).leaf = fresh
            child = block_id // chi ** (k - 1)
            next_leaf = maps[k - 1][child]
            if k > 1:
                fresh = self._levels[k - 2].draw()
                maps[k - 1][child] = fresh
            if not hit:
                level.tree.write_path(leaf, plan_greedy_write_back(level.tree, level.stash, leaf))
                self.counter.record_posmap_path_write(*level.tree.path_cost)
            leaf = next_leaf
        return leaf

    # -- charge-free reads and trusted set-up ---------------------------
    def peek(self, block_id: int) -> int:
        self._check(block_id)
        return self._entries[block_id]

    def peek_many(self, block_ids) -> np.ndarray:
        return np.array([self.peek(int(b)) for b in block_ids], dtype=np.int64)

    def load_many(self, block_ids, leaves) -> None:
        for block_id, leaf in zip(block_ids, leaves):
            self._check(block_id)
            if not 0 <= leaf < self._num_leaves:
                raise ConfigurationError(f"leaf {leaf} outside [0, {self._num_leaves})")
            self._entries[int(block_id)] = int(leaf)

    def as_array(self) -> np.ndarray:
        return np.array([self._entries[b] for b in range(self._num_blocks)], dtype=np.int64)

    # -- shape and footprint --------------------------------------------
    @property
    def positions_per_block(self) -> int:
        return self._chi

    def client_memory_bytes(self) -> int:
        """The top map, and each stashed label block with its id and leaf."""
        residents = sum(len(level.stash) for level in self._levels)
        return len(self._top) * LABEL_BYTES + residents * (self._chi * LABEL_BYTES + 16)

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self._num_blocks:
            raise BlockNotFoundError(f"block {block_id} not in position map")
