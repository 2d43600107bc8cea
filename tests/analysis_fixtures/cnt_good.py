"""Known-good fused drivers: finally-guarded counter flushes."""


class DirectFlushDriver:
    def _run_trace_fused(self, ids, counter):
        logical = 0
        try:
            for _block_id in ids:
                logical += 1
        finally:
            counter.add_bulk(logical)
        return logical


class ClosureFlushDriver:
    # The sync_out pattern: the finally calls a local closure whose body
    # performs the flush.
    def _run_trace_fused(self, ids, counter):
        logical = 0

        def sync_out():
            counter.add_bulk(logical)

        try:
            for _block_id in ids:
                logical += 1
        finally:
            sync_out()
        return logical
