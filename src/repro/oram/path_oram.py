"""PathORAM (Stefanov et al.) — the baseline protocol LAORAM builds on.

The implementation follows the access sequence described in Section II-C of
the paper:

1. look up the block's path in the position map (serve directly from the
   stash when the block is already there);
2. fetch every bucket on that path from the server into the stash;
3. perform the requested read/write on the block;
4. remap the block to a fresh, uniformly random path;
5. write blocks from the stash back onto the fetched path, as deep as the
   path-prefix rule allows (greedy eviction);
6. when the stash exceeds the background-eviction threshold, issue dummy
   reads of random paths until it drains to the target.

The whole sequence runs on the engine's one kernel,
:meth:`~repro.oram.engine.ArrayStorageEngine._run_bins`, shared with
LAORAM: a PathORAM access is a one-id bin, a superblock of size one.  The
server tree is an :class:`~repro.oram.tree.ArrayTreeStorage`, the stash an
:class:`~repro.oram.stash.ArrayStash` (one ``{id: leaf}`` dict), and
payloads live in a client-side store.

Traffic is recorded in one
:class:`~repro.memory.accounting.TrafficCounter`; simulated time is its
price under :class:`~repro.memory.timing.TimingModel`.  The evaluation
harness turns the two into the paper's speedup / dummy-read / traffic
metrics.
"""

from __future__ import annotations

from repro.oram.engine import ArrayStorageEngine


class PathORAM(ArrayStorageEngine):
    """PathORAM client + simulated server storage.

    The access/eviction control flow and the storage backend both come from
    :mod:`repro.oram.engine`; PathORAM adds nothing on top — it *is* the
    base protocol.
    """
