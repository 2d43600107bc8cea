"""Abstract interface implemented by every (oblivious or not) memory engine."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.memory.accounting import TrafficSnapshot


def as_block_ids(block_ids) -> np.ndarray:
    """``block_ids`` as a one-dimensional int64 array, rejecting non-integers.

    An integer array or a sequence of ints (Python's bools among them)
    passes; anything else — a float, even a whole one, ``None`` — raises
    :class:`~repro.exceptions.ConfigurationError`, where an ``int64`` cast
    would silently truncate it (``[1.5, 2.0]`` would serve blocks 1 and 2).
    Ranges are the engine's to check.
    """
    array = np.asarray(block_ids)
    if array.dtype.kind not in "biu" and array.size:
        raise ConfigurationError(
            f"block ids must be integers, got dtype {array.dtype} "
            "(non-integer ids would be silently truncated)"
        )
    if array.ndim != 1:
        raise ConfigurationError(f"block ids must be one-dimensional, got shape {array.shape}")
    return np.ascontiguousarray(array, dtype=np.int64)


class AccessOp(enum.Enum):
    """Kind of logical access issued by the application."""

    READ = "read"
    WRITE = "write"


class ObliviousMemory(ABC):
    """Common interface of the memory engines in this package.

    Implementations include the insecure baseline, PathORAM and the LAORAM
    client.  The interface is block oriented: the application addresses
    logical blocks (embedding rows) and receives the stored payload back.
    """

    @abstractmethod
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Perform one logical access and return the block's payload."""

    def _check_payloads(self, payloads) -> None:
        """Reject a ``load_payloads`` argument before any of it is installed.

        A payload matrix must be 2-D with at most :attr:`num_blocks` rows,
        and every key of a ``{block_id: payload}`` mapping a block id in
        ``[0, num_blocks)``; anything else raises ``BlockNotFoundError`` with
        every block still holding what it held.
        """
        num_blocks = self.num_blocks
        if isinstance(payloads, np.ndarray):
            if payloads.ndim != 2 or len(payloads) > num_blocks:
                raise BlockNotFoundError(
                    f"payload matrix of shape {payloads.shape} does not map "
                    f"onto {num_blocks} blocks"
                )
            return
        for block_id in payloads:
            if not 0 <= block_id < num_blocks:
                raise BlockNotFoundError(
                    f"payload block id {block_id} not present in the ORAM"
                )

    def read(self, block_id: int) -> Optional[object]:
        """Convenience wrapper for a read access."""
        return self.access(block_id, AccessOp.READ)

    def write(self, block_id: int, payload: object) -> None:
        """Convenience wrapper for a write access."""
        self.access(block_id, AccessOp.WRITE, new_payload=payload)

    def run_trace(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> Sequence[Optional[object]]:
        """Replay an access sequence known in advance; returns its payloads.

        The result is what calling :meth:`access` once per element returns,
        and this default does exactly that.  ``ops`` may be omitted (all
        reads), one :class:`AccessOp` applied to every access, or a
        per-access sequence; ``payloads`` requires ``ops`` and supplies the
        per-access write payloads.  Numpy integer arrays are accepted and
        drained with one bulk ``tolist``.

        Because the whole sequence is in hand, engines may look ahead:
        PathORAM runs it on the bin kernel in one call, keeping the
        sequential semantics bit for bit, and the LAORAM client with the
        lookahead pipeline (preprocessing, trusted placement before the
        first access, superblock bins — read traces only).  Callers replay
        with ``engine.run_trace(ids)`` whichever engine they hold.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        op_seq, payload_seq = self._normalize_trace_args(len(ids), ops, payloads)
        access = self.access
        if op_seq is None:
            return [access(block_id) for block_id in ids]
        return [
            access(block_id, op, payload)
            for block_id, op, payload in zip(ids, op_seq, payload_seq)
        ]

    @staticmethod
    def _normalize_trace_args(n: int, ops, payloads):
        """Expand/validate ``run_trace``'s op and payload arguments.

        Returns ``(None, None)`` for the common all-reads case so drivers
        can keep a branch-free fast path, else two length-``n`` sequences.
        """
        if ops is None:
            if payloads is not None:
                raise ConfigurationError("run_trace payloads require ops")
            return None, None
        if isinstance(ops, AccessOp):
            op_seq: Sequence[AccessOp] = [ops] * n
        else:
            op_seq = list(ops)
            if len(op_seq) != n:
                raise ConfigurationError("ops must match block_ids in length")
        if payloads is None:
            payload_seq: Sequence[object] = [None] * n
        else:
            if len(payloads) != n:
                raise ConfigurationError("payloads must match block_ids in length")
            payload_seq = payloads
        return op_seq, payload_seq

    def access_many(self, block_ids: Sequence[int]) -> Sequence[Optional[object]]:
        """Serve reads of ``block_ids`` now, in order; returns their payloads.

        Unlike :meth:`run_trace` nothing beyond this call is known, so no
        engine plans or re-places anything here; LAORAM clients serve the
        ids in superblock bins.
        """
        return self.run_trace(block_ids)

    def write_many(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        """Serve writes of ``payloads`` to ``block_ids`` now, in order.

        Duplicate ids keep the last payload, as a sequential write stream
        would; a length mismatch raises ``ConfigurationError``.
        """
        self.run_trace(block_ids, AccessOp.WRITE, payloads)

    #: The ids of the open hold (:meth:`hold_many` until :meth:`commit`).
    _hold_ids: Optional[list[int]] = None
    #: Whether :meth:`hold_many`'s read request is running.
    _holding = False

    @property
    def hold_open(self) -> bool:
        """Whether a :meth:`hold_many` awaits its :meth:`commit`."""
        return self._hold_ids is not None

    def hold_many(self, block_ids: Sequence[int]) -> Sequence[Optional[object]]:
        """Serve reads of ``block_ids`` now and keep them for :meth:`commit`.

        A training step's two halves: the rows it fetches are the rows it
        writes back.  The read is one :meth:`access_many` request, which
        the tree engines serve as they serve any read, except that they
        write none of the paths back until the commit, which writes each
        path back with its blocks and the step's new rows, so the step
        costs one request.  An engine without a client-side hold, the
        insecure baseline, serves the read and then, at the commit, a
        :meth:`write_many`.  One hold is open at a time; a read that raises
        opens none, and what it read goes back as a commit would write it.
        A non-integer id raises before the hold opens.
        """
        if self._hold_ids is not None:
            raise ConfigurationError("a hold is open: commit it before holding again")
        ids = as_block_ids(block_ids).tolist()
        self._holding = True
        try:
            rows = self.access_many(block_ids)
        except BaseException:
            self._holding = False
            self._end_hold()
            raise
        self._holding = False
        self._hold_ids = ids
        return rows

    def commit(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        """Store ``payloads`` for the open hold's ids and close the hold.

        ``block_ids`` must be the ids :meth:`hold_many` was given, in order;
        duplicate ids keep the last payload.  Any other ids raise
        ``ConfigurationError`` and close the hold all the same.
        """
        self.write_many(self._close_hold(block_ids), payloads)

    def release_hold(self) -> None:
        """Close the open hold and store nothing: the held rows keep their values.

        For a caller that cannot produce the step's rows (a rejected
        update); the paths the hold read are written back as a commit
        writes them.
        """
        if self._hold_ids is None:
            raise ConfigurationError("no hold is open")
        self._hold_ids = None
        self._end_hold()

    def _end_hold(self) -> None:
        """Write back what a hold read: nothing on an engine that writes as it reads."""

    def _close_hold(self, block_ids: Sequence[int]) -> list[int]:
        """Close the open hold; its ids, if ``block_ids`` are they, else raise."""
        held, self._hold_ids = self._hold_ids, None
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else list(block_ids)
        if held is None:
            raise ConfigurationError("commit without an open hold")
        if ids != held:
            raise ConfigurationError("commit ids differ from the held ids")
        return ids

    @property
    @abstractmethod
    def statistics(self) -> TrafficSnapshot:
        """Traffic counters accumulated so far."""

    @property
    @abstractmethod
    def simulated_time_s(self) -> float:
        """Simulated elapsed time according to the timing model."""

    @property
    @abstractmethod
    def num_blocks(self) -> int:
        """Number of logical blocks managed by this memory."""

    @property
    @abstractmethod
    def server_memory_bytes(self) -> int:
        """Server-side storage footprint."""
