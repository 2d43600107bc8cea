"""Tests for the PrORAM (history-based superblock) baseline."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig
from repro.oram.pr_oram import PrORAM, SuperblockMode


@pytest.fixture
def config():
    return ORAMConfig(num_blocks=128, block_size_bytes=32, seed=5)


class TestConstruction:
    def test_static_mode_merges_all_groups(self, config):
        oram = PrORAM(config, superblock_size=4, mode=SuperblockMode.STATIC)
        assert oram.merged_group_count == 32

    def test_dynamic_mode_starts_with_no_superblocks(self, config):
        oram = PrORAM(config, superblock_size=4, mode=SuperblockMode.DYNAMIC)
        assert oram.merged_group_count == 0

    def test_invalid_parameters_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PrORAM(config, superblock_size=0)
        with pytest.raises(ConfigurationError):
            PrORAM(config, merge_threshold=0)
        with pytest.raises(ConfigurationError):
            PrORAM(config, history_window=0)


class TestGrouping:
    def test_group_of_adjacent_addresses(self, config):
        oram = PrORAM(config, superblock_size=4)
        assert oram.group_of(0) == oram.group_of(3)
        assert oram.group_of(4) == 1

    def test_group_members(self, config):
        oram = PrORAM(config, superblock_size=4)
        assert oram.group_members(1) == [4, 5, 6, 7]

    def test_last_group_may_be_short(self):
        config = ORAMConfig(num_blocks=10, block_size_bytes=32)
        oram = PrORAM(config, superblock_size=4)
        assert oram.group_members(2) == [8, 9]


class TestDynamicBehaviour:
    def test_spatially_local_stream_creates_superblocks(self, config):
        oram = PrORAM(
            config, superblock_size=2, mode=SuperblockMode.DYNAMIC, merge_threshold=2
        )
        # Repeatedly access adjacent pairs: strong spatial locality.
        for _ in range(10):
            oram.read(0)
            oram.read(1)
        assert oram.is_merged(0)

    def test_random_stream_creates_few_superblocks(self, config):
        """The paper's observation: random embedding accesses give PrORAM nothing."""
        oram = PrORAM(
            config,
            superblock_size=2,
            mode=SuperblockMode.DYNAMIC,
            merge_threshold=2,
            history_window=8,
        )
        rng = np.random.default_rng(0)
        for block in rng.integers(0, 128, size=400):
            oram.read(int(block))
        assert oram.merged_group_count <= 8

    def test_superblock_breaks_apart_without_locality(self, config):
        oram = PrORAM(
            config,
            superblock_size=2,
            mode=SuperblockMode.DYNAMIC,
            merge_threshold=2,
            history_window=4,
        )
        for _ in range(5):
            oram.read(0)
            oram.read(1)
        assert oram.is_merged(0)
        rng = np.random.default_rng(1)
        for block in rng.integers(64, 128, size=50):
            oram.read(int(block))
        for _ in range(6):
            oram.read(0)
            rng_far = int(rng.integers(64, 128))
            oram.read(rng_far)
        assert not oram.is_merged(0)


class TestCorrectness:
    def test_payload_round_trip_with_superblocks(self, config):
        oram = PrORAM(config, superblock_size=4, mode=SuperblockMode.STATIC)
        oram.write(10, b"ten")
        oram.write(11, b"eleven")
        assert oram.read(10) == b"ten"
        assert oram.read(11) == b"eleven"

    def test_block_conservation(self, config):
        oram = PrORAM(config, superblock_size=4, mode=SuperblockMode.STATIC)
        rng = np.random.default_rng(2)
        for block in rng.integers(0, 128, size=300):
            oram.read(int(block))
        assert oram.total_real_blocks() == 128

    def test_merged_group_shares_single_leaf(self, config):
        oram = PrORAM(config, superblock_size=2, mode=SuperblockMode.STATIC)
        oram.read(6)
        stash_ids = set(oram.stash.block_ids)
        if 6 in stash_ids and 7 in stash_ids:
            assert oram.position_map.peek(6) == oram.position_map.peek(7)

    def test_static_superblocks_reduce_path_reads_on_local_stream(self, config):
        baseline = PrORAM(config, superblock_size=1, mode=SuperblockMode.STATIC)
        grouped = PrORAM(config, superblock_size=4, mode=SuperblockMode.STATIC)
        stream = [base + offset for base in range(0, 64, 4) for offset in range(4)] * 3
        baseline.access_many(stream)
        grouped.access_many(stream)
        assert (
            grouped.statistics.path_reads + grouped.statistics.dummy_reads
            < baseline.statistics.path_reads + baseline.statistics.dummy_reads
        )
