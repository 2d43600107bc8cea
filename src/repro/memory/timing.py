"""Combined timing model translating ORAM traffic into simulated time.

The paper measures wall-clock access latency on real hardware.  We replace
the testbed with an analytic model: every path read/write is charged

* one interconnect request (latency + transfer of the path's bytes), and
* per-bucket DRAM activations plus the same bytes at DRAM bandwidth, and
* a fixed client-side metadata overhead (position map lookup, stash insert).

Because these terms are linear in the counted events, relative speedups are
determined by the same quantities the paper's speedups depend on (paths
fetched, bytes moved, dummy evictions), which is what the reproduction aims
to preserve.  For the same reason the model keeps integers only: how many
transfers of each ``(buckets, bytes)`` class and how many accesses were
charged.  The clock is their closed form, so it does not depend on the
order or the grouping of the charges — an engine charging once per event
and one charging once per trace read the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel


@dataclass
class TimingModel:
    """Counts ORAM server and link activity and prices it as simulated time.

    Attributes:
        dram: Server memory timing parameters.
        interconnect: Client-server link timing parameters.
        client_overhead_us: Fixed client-side bookkeeping cost charged per
            logical ORAM access (position map lookup, stash management).
    """

    dram: DRAMModel = field(default_factory=DRAMModel)
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    client_overhead_us: float = 2.0
    #: ``(num_buckets, num_bytes) -> transfers charged`` — one class per tree
    #: geometry (main tree, each recursion level, RingORAM's online reads
    #: and per-level reshuffles).
    _transfers: dict = field(default_factory=dict, init=False, repr=False)
    _accesses: int = field(default=0, init=False, repr=False)

    def charge_path_transfer(
        self, num_buckets: int, num_bytes: int, count: int = 1
    ) -> None:
        """Charge ``count`` path reads or writes of one transfer class."""
        transfers = self._transfers
        shape = (num_buckets, num_bytes)
        transfers[shape] = transfers.get(shape, 0) + count

    def path_transfer_delta(self, num_buckets: int, num_bytes: int) -> float:
        """Seconds one transfer of this class costs, without charging it."""
        return self.dram.access_time_s(
            num_buckets, num_bytes
        ) + self.interconnect.transfer_time_s(1, num_bytes)

    def charge_client_overhead(self, num_accesses: int = 1) -> None:
        """Charge fixed per-access client bookkeeping time."""
        self._accesses += num_accesses

    @property
    def elapsed_s(self) -> float:
        """Total simulated time charged so far, in seconds.

        An exactly rounded sum (``math.fsum``) of one product per transfer
        class plus the overhead term, so equal counts give equal floats.
        """
        terms = [self._accesses * self.client_overhead_us * 1e-6]
        for shape, count in self._transfers.items():
            terms.append(count * self.path_transfer_delta(*shape))
        return math.fsum(terms)

    def reset(self) -> None:
        """Zero the charged counts (used between experiment phases)."""
        self._transfers.clear()
        self._accesses = 0
