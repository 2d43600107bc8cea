"""Position map: the trusted mapping from block id to its assigned path."""

from __future__ import annotations

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError


def _as_int_array(values, label: str) -> np.ndarray:
    """Coerce ``values`` to int64, rejecting non-integer inputs.

    ``np.asarray(values, dtype=np.int64)`` on float input silently
    truncates, so a fractional leaf or id would pass the range checks with
    a corrupted value; lists are validated through the same dtype
    inspection (``np.asarray`` without a dtype infers float for mixed or
    fractional content).
    """
    array = np.asarray(values)
    if array.dtype.kind in ("i", "u"):
        return array.astype(np.int64, copy=False)
    if array.size == 0:
        # An empty Python list infers float64; nothing to truncate.
        return np.empty(array.shape, dtype=np.int64)
    raise ConfigurationError(
        f"{label} must be an integer array, got dtype {array.dtype} "
        "(non-integer input would be silently truncated)"
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes (tags handed to drivers)."""
    view = array.view()
    view.flags.writeable = False
    return view


class PositionMap:
    """Maps every real block to the leaf (path) it is currently assigned to.

    Stored client-side (GPU HBM in the paper); lookups are therefore not
    visible to the adversary.  The map is a dense numpy array because block
    ids are contiguous embedding-row indices.
    """

    def __init__(
        self,
        num_blocks: int,
        num_leaves: int,
        rng: np.random.Generator,
    ):
        if num_blocks < 1:
            raise ConfigurationError("num_blocks must be >= 1")
        if num_leaves < 2:
            raise ConfigurationError("num_leaves must be >= 2")
        self._num_leaves = num_leaves
        self._leaves = rng.integers(0, num_leaves, size=num_blocks, dtype=np.int64)
        self._tags = _read_only(self._leaves)

    def __len__(self) -> int:
        return int(self._leaves.size)

    @property
    def num_leaves(self) -> int:
        """Number of distinct paths blocks can map to."""
        return self._num_leaves

    def get(self, block_id: int) -> int:
        """Current leaf of ``block_id``."""
        self._check(block_id)
        return int(self._leaves[block_id])

    def set(self, block_id: int, leaf: int) -> None:
        """Reassign ``block_id`` to ``leaf``."""
        self._check(block_id)
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(f"leaf {leaf} outside [0, {self._num_leaves})")
        self._leaves[block_id] = leaf

    def get_many(self, block_ids) -> np.ndarray:
        """Vectorised lookup of several block ids.

        Raises the same exception types as the scalar :meth:`get`:
        :class:`~repro.exceptions.BlockNotFoundError` for out-of-range ids
        and :class:`~repro.exceptions.ConfigurationError` for inputs that
        are not integers (a float array would silently truncate).
        """
        ids = _as_int_array(block_ids, "block_ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self._leaves.size):
            raise BlockNotFoundError("block id outside position map range")
        return self._leaves[ids]

    def set_many(self, block_ids, leaves) -> None:
        """Vectorised reassignment of several block ids.

        Mirrors the scalar :meth:`set`: non-integer inputs raise
        :class:`~repro.exceptions.ConfigurationError` instead of being
        truncated (``leaf * 0.5`` bugs used to pass the range checks after
        the implicit ``int64`` cast), ids outside the map raise
        :class:`~repro.exceptions.BlockNotFoundError`, and leaves outside
        ``[0, num_leaves)`` raise ``ConfigurationError``.
        """
        ids = _as_int_array(block_ids, "block_ids")
        new_leaves = _as_int_array(leaves, "leaves")
        if ids.size != new_leaves.size:
            raise ConfigurationError("block_ids and leaves must have equal length")
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self._leaves.size:
            raise BlockNotFoundError("block id outside position map range")
        if new_leaves.min() < 0 or new_leaves.max() >= self._num_leaves:
            raise ConfigurationError("leaf outside position map leaf range")
        self._leaves[ids] = new_leaves

    # ------------------------------------------------------------------
    # Charge-free channel (shared with RecursivePositionMap)
    # ------------------------------------------------------------------
    def peek(self, block_id: int) -> int:
        """Leaf of ``block_id`` through the metadata channel (never charged).

        Blocks fetched from a path carry their (id, leaf) metadata with
        them, so the engine may read the label of an already-transferred
        block without touching the position map obliviously.  On the dense
        map this is :meth:`get`; the recursive map implements it without a
        recursion walk.  Only sanctioned for blocks the caller just moved
        (path fetches, stash reattach) and for trusted setup.
        """
        self._check(block_id)
        return int(self._leaves[block_id])

    def peek_many(self, block_ids) -> np.ndarray:
        """Vectorised :meth:`peek` (same sanction rules)."""
        ids = _as_int_array(block_ids, "block_ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self._leaves.size):
            raise BlockNotFoundError("block id outside position map range")
        return self._leaves[ids]

    def load(self, block_id: int, leaf: int) -> None:
        """Trusted-setup assignment: :meth:`set` semantics, never charged."""
        self.set(block_id, leaf)

    def load_many(self, block_ids, leaves) -> None:
        """Trusted-setup bulk assignment (:meth:`set_many`, never charged).

        Initial placement and co-location run before the first
        adversary-visible access, under the same trust assumption as
        PathORAM's bulk load; routing them through ``load_many`` keeps
        them charge-free on the recursive map.
        """
        self.set_many(block_ids, leaves)

    def leaf_access(self):
        """The array drivers' leaf-access contract: ``(tags, get, set)``.

        Every driver that runs a whole trace (the fused drivers, LAORAM's
        bin) binds this triple once per call and takes all its leaves
        through it, so what a position map *is* stays the map's business.
        ``tags`` is a read-only view for the metadata channel — the array
        :meth:`peek_many` indexes, for blocks that just came off a path.
        ``get(block_id)`` and ``set(block_id, leaf)`` are the protocol's
        lookup and remap, charged by whichever map answers: here the dense
        array's own ``item`` / ``__setitem__`` (free, and no Python frame
        per access); on ``RecursivePositionMap`` the recursion walk and its
        write entitlement.  Unchecked on this map: callers pass ids they
        range-checked and leaves drawn from ``integers(0, num_leaves)`` or
        a range-checked plan.  All three are stable for the map's lifetime.
        """
        leaves = self._leaves
        return self._tags, leaves.item, leaves.__setitem__

    def as_array(self) -> np.ndarray:
        """Copy of the full map (used by tests and diagnostics)."""
        return self._leaves.copy()

    def client_memory_bytes(self) -> int:
        """Approximate client memory used by the map."""
        return int(self._leaves.nbytes)

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self._leaves.size:
            raise BlockNotFoundError(f"block {block_id} not in position map")
