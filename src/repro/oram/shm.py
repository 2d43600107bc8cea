"""Shared-memory array allocation for process-parallel shard execution.

The vectorized engines keep all hot state in a handful of flat numpy arrays
(tree slots/occupancies, the position map).  When a shard engine runs
inside a worker process, those arrays can be placed in
:mod:`multiprocessing.shared_memory` segments instead of private heap pages,
so the parent process can *snapshot* shard state — position maps, tree
occupancy — by attaching to the segments and reading them directly, without
pickling megabytes through a pipe.  (The stash is a small dict in the
worker; its occupancy reaches the parent in the ``state`` message.)

Two allocators implement one small protocol:

* :class:`ArrayAllocator` — the default: plain process-private numpy
  arrays, zero overhead, used everywhere outside the worker pool;
* :class:`SharedMemoryArrayPool` — one named ``SharedMemory`` segment per
  logical array.  The pool records a picklable :func:`registry` mapping
  logical names (``"tree.slots"``, ``"tree.occ"``, ``"posmap.leaves"``) to
  ``(segment_name, shape, dtype)`` descriptors that the parent uses to
  attach.

Ownership and cleanup: the *worker* that created a pool owns its segments
and must call :meth:`SharedMemoryArrayPool.close` (unlinking them) before
exit — the executor's worker loop does this in a ``finally`` so even a
crashing shard leaves nothing behind.  The parent holds a belt-and-braces
sweep (:func:`unlink_registry`) for workers that died too hard to clean up.
Every array is allocated once, at engine construction, and lives as long as
its pool.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Iterable

import numpy as np

#: registry entry: logical name -> (segment name, shape, dtype string)
RegistryEntry = tuple[str, tuple[int, ...], str]
Registry = dict[str, RegistryEntry]


class ArrayAllocator:
    """Default array allocator: private numpy arrays, no shared segments.

    Every allocation carries a logical ``name`` so the shared-memory pool
    can expose it to the parent; the default allocator ignores the names.
    """

    #: Whether arrays from this allocator live in attachable shared memory.
    shared = False

    def full(self, name: str, size: int, fill_value: int, dtype) -> np.ndarray:
        """Allocate a 1-D array of ``size`` filled with ``fill_value``."""
        return np.full(size, fill_value, dtype=dtype)

    def zeros(self, name: str, size: int, dtype) -> np.ndarray:
        """Allocate a 1-D zero array of ``size``."""
        return np.zeros(size, dtype=dtype)

    def adopt(self, name: str, array: np.ndarray) -> np.ndarray:
        """Take ownership of an already-materialized array.

        The default allocator returns it unchanged; the pool copies it into
        a segment so callers that build content first (e.g. the position
        map's RNG draw) still end up shared.
        """
        return array

    def registry(self) -> Registry:
        """Descriptors of the live shared arrays (empty when not shared)."""
        return {}

    def close(self, unlink: bool = True) -> None:
        """Release every live allocation (no-op for private arrays)."""


#: Module-default allocator used when none is passed to a constructor.
DEFAULT_ALLOCATOR = ArrayAllocator()


class SharedMemoryArrayPool(ArrayAllocator):
    """Allocator backing each named array with one ``SharedMemory`` segment.

    ``prefix`` namespaces the segment names (the executor uses one prefix
    per run and one suffix per shard, so a crashed run can be swept by
    prefix).  A logical name is allocated once per pool.
    """

    shared = True

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._seq = 0
        # logical name -> (SharedMemory, ndarray); insertion ordered.
        self._live: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
        # Segments unlinked by close() but not yet closeable because a numpy
        # view still exports their buffer; retried on the next close().
        self._zombies: list[shared_memory.SharedMemory] = []

    @property
    def prefix(self) -> str:
        """Segment-name prefix of every allocation from this pool."""
        return self._prefix

    # -- allocation ----------------------------------------------------
    def _allocate(self, name: str, size: int, dtype) -> np.ndarray:
        if name in self._live:
            raise ValueError(f"array {name!r} is already allocated in this pool")
        nbytes = max(1, int(size) * np.dtype(dtype).itemsize)
        self._seq += 1
        segment = shared_memory.SharedMemory(
            name=f"{self._prefix}.{self._seq}", create=True, size=nbytes
        )
        array = np.ndarray(int(size), dtype=dtype, buffer=segment.buf)
        self._live[name] = (segment, array)
        return array

    def full(self, name: str, size: int, fill_value: int, dtype) -> np.ndarray:
        array = self._allocate(name, size, dtype)
        array[...] = fill_value
        return array

    def zeros(self, name: str, size: int, dtype) -> np.ndarray:
        return self.full(name, size, 0, dtype)

    def adopt(self, name: str, array: np.ndarray) -> np.ndarray:
        shared = self._allocate(name, array.size, array.dtype)
        shared[...] = array
        return shared

    # -- export / cleanup ----------------------------------------------
    def registry(self) -> Registry:
        return {
            name: (segment.name, array.shape, array.dtype.str)
            for name, (segment, array) in self._live.items()
        }

    def close(self, unlink: bool = True) -> None:
        for name, (segment, _array) in list(self._live.items()):
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            try:
                segment.close()
            except BufferError:
                self._zombies.append(segment)
        self._live.clear()
        for segment in list(self._zombies):
            try:
                segment.close()
                self._zombies.remove(segment)
            except BufferError:
                pass


# ----------------------------------------------------------------------
# Parent-side helpers
# ----------------------------------------------------------------------
def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop this process's resource_tracker registration for ``segment``.

    Attaching registers the name with the tracker (through Python 3.12),
    but ``close()`` never unregisters — so a parent that attaches to
    worker-owned segments accumulates stale entries and warns at shutdown
    about "leaked" segments the worker already unlinked.  Private API,
    hence the broad guard.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def detach_segments(segments: Iterable[shared_memory.SharedMemory]) -> None:
    """Close attached segments without unlinking (the worker owns them)."""
    for segment in segments:
        segment.close()
        _untrack(segment)


def attach_registry(
    registry: Registry,
) -> tuple[dict[str, np.ndarray], list[shared_memory.SharedMemory]]:
    """Attach to every segment of ``registry``; returns (views, segments).

    The views alias worker memory — zero copies.  The caller must drop all
    views, then release the segments with :func:`detach_segments` (a bare
    ``close()`` leaves a stale resource_tracker registration behind).
    """
    views: dict[str, np.ndarray] = {}
    segments: list[shared_memory.SharedMemory] = []
    for name, (segment_name, shape, dtype) in registry.items():
        segment = shared_memory.SharedMemory(name=segment_name)
        segments.append(segment)
        views[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    return views, segments


def read_registry(registry: Registry) -> dict[str, np.ndarray]:
    """Copy every array of ``registry`` out of shared memory.

    Used for snapshots that must outlive the worker; the transfer itself is
    a straight memcpy out of the segment (no pickling).
    """
    views, segments = attach_registry(registry)
    arrays = {name: np.array(view) for name, view in views.items()}
    del views
    detach_segments(segments)
    return arrays


def unlink_registry(registry: Registry) -> list[str]:
    """Force-unlink every segment of ``registry``; returns the names removed.

    Parent-side crash sweep: normally the worker unlinks its own segments
    (even on error, via the worker loop's ``finally``), so this finds
    nothing; after a hard kill it reclaims whatever the worker left.
    """
    removed: list[str] = []
    for _name, (segment_name, _shape, _dtype) in registry.items():
        try:
            segment = shared_memory.SharedMemory(name=segment_name)
        except FileNotFoundError:
            continue
        try:
            segment.unlink()
            removed.append(segment_name)
        except FileNotFoundError:
            # unlink() unregisters only on success; drop the registration
            # the attach above created so the tracker stays quiet.
            segment.close()
            _untrack(segment)
            continue
        segment.close()
    return removed


def leaked_segments(prefix: str, registries: Iterable[Registry] = ()) -> list[str]:
    """Names of segments under ``prefix`` that still exist (diagnostics).

    Checks every name recorded in ``registries`` plus, on platforms that
    expose POSIX shared memory as files (Linux ``/dev/shm``), any segment
    whose name starts with ``prefix``.
    """
    import os

    found: set[str] = set()
    for registry in registries:
        for _name, (segment_name, _shape, _dtype) in registry.items():
            try:
                segment = shared_memory.SharedMemory(name=segment_name)
            except FileNotFoundError:
                continue
            found.add(segment_name)
            segment.close()
            _untrack(segment)
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        for entry in os.listdir(shm_dir):
            if entry.startswith(prefix):
                found.add(entry)
    return sorted(found)
