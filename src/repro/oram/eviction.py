"""Background-eviction policy used by PathORAM and LAORAM clients.

Background eviction issues *dummy reads* -- path reads of uniformly random
leaves that remap nothing -- purely to create write-back opportunities and
drain the stash.  The paper triggers eviction when the stash exceeds 500
blocks and drains it down to 50 (Section VIII-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class EvictionPolicy:
    """Threshold-triggered background eviction.

    After a bin whose stash holds more than ``trigger_threshold`` blocks,
    an episode of dummy reads runs while the stash holds more than
    ``drain_target`` and fewer than ``max_dummy_reads_per_episode`` reads
    were issued; a disabled policy never starts one.  The request kernel
    (``serve`` in ``oram/_write_back.c``) runs the loop on these fields.

    Attributes:
        enabled: Whether background eviction runs at all (Fig. 8 disables it
            to expose raw stash growth).
        trigger_threshold: Stash occupancy at which eviction starts.
        drain_target: Stash occupancy eviction drains down to.
        max_dummy_reads_per_episode: Safety valve preventing an unbounded
            eviction loop when the tree is too full to accept blocks.
    """

    enabled: bool = True
    trigger_threshold: int = 500
    drain_target: int = 50
    max_dummy_reads_per_episode: int = 10_000

    def __post_init__(self) -> None:
        if self.trigger_threshold < 1:
            raise ConfigurationError("trigger_threshold must be >= 1")
        if self.drain_target < 0:
            raise ConfigurationError("drain_target must be >= 0")
        if self.drain_target > self.trigger_threshold:
            raise ConfigurationError("drain_target must not exceed trigger_threshold")
        if self.max_dummy_reads_per_episode < 1:
            raise ConfigurationError("max_dummy_reads_per_episode must be >= 1")

    @classmethod
    def disabled(cls) -> "EvictionPolicy":
        """Policy with background eviction turned off."""
        return cls(enabled=False)

    @classmethod
    def paper_default(cls) -> "EvictionPolicy":
        """The trigger-500 / drain-to-50 policy used in the paper's Table II."""
        return cls(enabled=True, trigger_threshold=500, drain_target=50)
