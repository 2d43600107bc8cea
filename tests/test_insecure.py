"""Tests for the insecure baseline memory."""

import numpy as np
import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.exceptions import BlockNotFoundError
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.experiments.configs import build_engine, build_oram_config
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


class TestAHeldStep:
    """A training step on the flat table: each distinct row read once at the
    hold and written once at the commit, every occurrence counted."""

    def make(self, observer=None):
        memory = InsecureMemory(ORAMConfig(num_blocks=64, block_size_bytes=32), observer=observer)
        memory.load_payloads(np.arange(64 * 8, dtype=np.float32).reshape(64, 8))
        return memory

    def test_each_distinct_row_moves_once_each_way(self):
        observer = MemoryBusObserver()
        memory = self.make(observer)
        ids = np.array([5, 9, 5, 5, 2])
        rows = np.asarray(memory.hold_many(ids))
        assert np.array_equal(rows, np.arange(64 * 8, dtype=np.float32).reshape(64, 8)[ids])
        held = memory.statistics
        assert (held.logical_accesses, held.path_reads, held.path_writes) == (5, 3, 0)
        assert held.bytes_read == 3 * 32
        values = rows + np.arange(5, dtype=np.float32)[:, None]
        memory.commit(ids, values)
        committed = memory.statistics
        assert (committed.logical_accesses, committed.path_reads) == (10, 3)
        assert (committed.path_writes, committed.bytes_written) == (3, 3 * 32)
        assert observer.observed_addresses == [5, 9, 2, 5, 9, 2]
        # A repeated id keeps its last row.
        read = np.asarray(memory.access_many([5, 9, 2]))
        assert np.array_equal(read, values[[3, 1, 4]])

    def test_an_id_out_of_range_reads_nothing_and_opens_no_hold(self):
        memory = self.make()
        with pytest.raises(BlockNotFoundError):
            memory.hold_many([1, 64])
        assert memory.statistics.logical_accesses == 0
        assert memory.statistics.path_reads == 0
        assert not memory.hold_open

    def test_an_epoch_costs_less_simulated_time_a_row_than_pathoram(self):
        def sim_us_per_row(label):
            config = build_oram_config(512, block_size_bytes=4 * 16, seed=3)
            store = SecureEmbeddingStore(
                build_engine(label, config), EmbeddingTable(512, 16, seed=3)
            )
            dataset = SyntheticXNLIDataset(
                32, vocabulary_size=512, sequence_length=16, exponent=1.2, seed=3
            )
            report = ObliviousEmbeddingTrainer(store).train_xlmr_epoch(
                XLMRClassifier(16, seed=3), dataset
            )
            return report.simulated_time_s * 1e6 / report.embedding_accesses

        insecure, pathoram = sim_us_per_row("Insecure"), sim_us_per_row("PathORAM")
        assert insecure < pathoram
