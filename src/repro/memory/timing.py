"""Combined timing model: the price of counted ORAM traffic, as simulated time.

The paper measures wall-clock access latency on real hardware.  We replace
the testbed with an analytic model that prices what the
:class:`~repro.memory.accounting.TrafficCounter` already counts:

* one interconnect request (latency + transfer of its bytes) per path read
  or write — main tree and recursion levels alike;
* one DRAM row activation per bucket touched, plus the same bytes at DRAM
  bandwidth;
* a fixed client-side metadata overhead per logical access (position map
  lookup, stash insert).

Because these terms are linear in the counted events, relative speedups are
determined by the same quantities the paper's speedups depend on (paths
fetched, bytes moved, dummy evictions), which is what the reproduction aims
to preserve.  The model holds prices only, no state: the clock is a pure
function of the counters, so it cannot fall out of step with them, and
equal counts give equal floats whatever order the events came in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.memory.channel import InterconnectModel
from repro.memory.dram import DRAMModel


@dataclass(frozen=True)
class TimingModel:
    """Prices ORAM server and link activity as simulated time.

    Attributes:
        dram: Server memory timing parameters.
        interconnect: Client-server link timing parameters.
        client_overhead_us: Fixed client-side bookkeeping cost per logical
            ORAM access (position map lookup, stash management).
    """

    dram: DRAMModel = field(default_factory=DRAMModel)
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    client_overhead_us: float = 2.0

    def elapsed_s(self, counts) -> float:
        """Simulated seconds of the traffic in ``counts``.

        ``counts`` is a :class:`~repro.memory.accounting.TrafficSnapshot` or
        a live :class:`~repro.memory.accounting.TrafficCounter`.
        """
        requests = (
            counts.path_reads
            + counts.dummy_reads
            + counts.path_writes
            + counts.posmap_path_reads
            + counts.posmap_path_writes
        )
        activations = (
            counts.buckets_read
            + counts.buckets_written
            + counts.posmap_buckets_read
            + counts.posmap_buckets_written
        )
        moved = (
            counts.bytes_read
            + counts.bytes_written
            + counts.posmap_bytes_read
            + counts.posmap_bytes_written
        )
        return math.fsum(
            (
                counts.logical_accesses * self.client_overhead_us * 1e-6,
                self.dram.access_time_s(activations, moved),
                self.interconnect.transfer_time_s(requests, moved),
            )
        )


#: The prices every engine's ``simulated_time_s`` reads its counters at.
PAPER_TIMING = TimingModel()
