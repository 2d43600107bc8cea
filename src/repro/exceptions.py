"""Exception hierarchy for the LAORAM reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class StashOverflowError(ReproError):
    """The client stash exceeded its hard capacity limit."""


class BlockNotFoundError(ReproError):
    """A requested block id does not exist in the ORAM."""


class IntegrityError(ReproError):
    """Stored data failed an integrity check (decryption or consistency)."""


class TraceError(ReproError):
    """An access trace is malformed (wrong dtype, out-of-range index, ...)."""


class ShardExecutionError(ReproError):
    """A shard worker process failed while executing its slice of work.

    Raised in the *parent* by the process-parallel executor when a worker
    reports an exception or dies without reporting one.  Carries enough of
    the worker-side failure to diagnose it without the worker's process:
    the shard, the original exception type name and message, and the
    formatted worker traceback.
    """

    def __init__(
        self,
        shard_id: int,
        original_type: str = "",
        message: str = "",
        worker_traceback: str = "",
    ):
        self.shard_id = shard_id
        self.original_type = original_type
        self.worker_traceback = worker_traceback
        detail = f"shard {shard_id} worker failed"
        if original_type:
            detail += f": {original_type}: {message}"
        elif message:
            detail += f": {message}"
        super().__init__(detail)
