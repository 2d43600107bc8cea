"""Known-good fused drivers: finally-guarded counter-and-clock flushes."""


class DirectFlushDriver:
    def _run_trace_fused(self, ids, counter, timing):
        logical = 0
        try:
            for _block_id in ids:
                logical += 1
        finally:
            counter.add_bulk(logical)
            timing.charge_client_overhead(logical)
        return logical


class ClosureFlushDriver:
    # The engine's sync_out pattern: the finally calls a local closure whose
    # body performs the flush.
    def _run_trace_fused(self, ids, counter, timing):
        logical = 0

        def sync_out():
            counter.add_bulk(logical)
            timing.charge_client_overhead(logical)

        try:
            for _block_id in ids:
                logical += 1
        finally:
            sync_out()
        return logical


class HelperFlushDriver:
    # The shared helper does both halves, and is held to it.
    def _flush_counts(self, logical):
        self.counter.add_bulk(logical)
        self.timing.charge_client_overhead(logical)

    def _run_trace_fused(self, ids):
        logical = 0
        try:
            for _block_id in ids:
                logical += 1
        finally:
            self._flush_counts(logical)
        return logical
