"""Known-bad fused drivers: deferred counts escape the finally block."""


class NoFlushDriver:
    def _run_trace_fused(self, ids, counter):  # EXPECT: CNT001
        logical = 0
        for _block_id in ids:
            logical += 1
        return logical


class UnguardedFlushDriver:
    def _run_trace_fused(self, ids, counter):  # EXPECT: CNT001
        logical = 0
        for _block_id in ids:
            logical += 1
        counter.add_bulk(logical)
        return logical


class WrongClauseDriver:
    def _run_trace_fused(self, ids, counter):  # EXPECT: CNT001
        logical = 0
        try:
            for _block_id in ids:
                logical += 1
        except ValueError:
            counter.add_bulk(logical)
        return logical

