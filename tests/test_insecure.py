"""Tests for the insecure baseline memory."""

import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.exceptions import BlockNotFoundError
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory


@pytest.fixture
def memory():
    config = ORAMConfig(num_blocks=64, block_size_bytes=32)
    return InsecureMemory(config)


class TestInsecureMemory:
    def test_read_write_round_trip(self, memory):
        memory.write(3, b"value")
        assert memory.read(3) == b"value"

    def test_unwritten_block_reads_none(self, memory):
        assert memory.read(5) is None

    def test_load_payloads(self, memory):
        memory.load_payloads({0: b"a", 1: b"b"})
        assert memory.read(1) == b"b"

    def test_out_of_range_rejected(self, memory):
        with pytest.raises(BlockNotFoundError):
            memory.read(64)

    def test_server_memory_is_raw_table_size(self, memory):
        assert memory.server_memory_bytes == 64 * 32

    def test_traffic_counts_single_blocks(self, memory):
        memory.read(0)
        memory.access(1, AccessOp.WRITE, new_payload=b"x")
        snap = memory.statistics
        assert snap.logical_accesses == 2
        assert snap.bytes_read == 2 * 32
        assert snap.bytes_written == 32

    def test_observer_sees_true_addresses(self):
        observer = MemoryBusObserver()
        config = ORAMConfig(num_blocks=64, block_size_bytes=32)
        memory = InsecureMemory(config, observer=observer)
        for block in (5, 9, 5, 1):
            memory.read(block)
        assert observer.observed_addresses == [5, 9, 5, 1]

    def test_simulated_time_advances(self, memory):
        before = memory.simulated_time_s
        memory.read(0)
        assert memory.simulated_time_s > before

    def test_clock_charges_no_client_overhead(self):
        # A flat table has no position map or stash to look up: 100 reads
        # are 100 one-bucket requests and nothing else.  With the engines'
        # 2 us per access on top the clock would read 200 us more.
        memory = InsecureMemory(ORAMConfig(num_blocks=64))
        for block_id in range(100):
            memory.read(block_id % 64)
        assert memory.simulated_time_s == pytest.approx(0.0008061946418612611, rel=1e-12)
