"""Behavioural tests for the PathORAM baseline."""

import numpy as np
import pytest

from repro.exceptions import BlockNotFoundError
from repro.memory.accounting import TrafficCounter
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig

from oracle import ObjectPathORAM


class TestConstruction:
    def test_every_block_is_stored_after_bulk_load(self, small_path_oram):
        assert small_path_oram.total_real_blocks() == small_path_oram.num_blocks

    def test_server_memory_matches_config(self, small_config):
        oram = ObjectPathORAM(small_config)
        assert oram.server_memory_bytes == small_config.server_memory_bytes

    def test_fat_tree_construction(self):
        config = ORAMConfig(num_blocks=128, bucket_size=4, fat_tree=True)
        oram = ObjectPathORAM(config)
        assert oram.tree.bucket_capacities[0] == 8
        assert oram.total_real_blocks() == 128


class TestAccessSemantics:
    def test_read_returns_loaded_payload(self, small_config):
        oram = ObjectPathORAM(small_config)
        oram.load_payloads({5: b"hello", 9: b"world"})
        assert oram.read(5) == b"hello"
        assert oram.read(9) == b"world"

    def test_write_then_read_round_trip(self, small_path_oram):
        small_path_oram.write(17, b"payload-17")
        assert small_path_oram.read(17) == b"payload-17"

    def test_write_survives_unrelated_traffic(self, small_path_oram, rng):
        small_path_oram.write(3, b"persistent")
        for block in rng.integers(0, 256, size=200):
            small_path_oram.read(int(block))
        assert small_path_oram.read(3) == b"persistent"

    def test_out_of_range_block_rejected(self, small_path_oram):
        with pytest.raises(BlockNotFoundError):
            small_path_oram.read(256)

    def test_access_many_preserves_order(self, small_config):
        oram = ObjectPathORAM(small_config)
        oram.load_payloads({i: f"row-{i}".encode() for i in range(10)})
        payloads = oram.access_many([3, 1, 4, 1, 5])
        assert payloads == [b"row-3", b"row-1", b"row-4", b"row-1", b"row-5"]

    def test_load_payloads_for_unknown_block_rejected(self, small_config):
        oram = ObjectPathORAM(small_config)
        with pytest.raises(BlockNotFoundError):
            oram.load_payloads({9999: b"x"})


class TestInvariants:
    def test_block_count_is_conserved(self, small_path_oram, permutation_trace):
        small_path_oram.access_many(permutation_trace.addresses[:300])
        assert small_path_oram.total_real_blocks() == small_path_oram.num_blocks

    def test_position_map_matches_block_location(self, small_path_oram, rng):
        """After any access, each block lies on its mapped path or in the stash."""
        for block_id in rng.integers(0, 256, size=100):
            small_path_oram.read(int(block_id))
        oram = small_path_oram
        stash_ids = set(oram.stash.block_ids)
        for block in oram.tree.iter_blocks():
            assert block.block_id not in stash_ids
            mapped_leaf = oram.position_map.peek(block.block_id)
            assert block.leaf == mapped_leaf
            # The block must actually sit on the path to its mapped leaf.
            found = any(
                candidate.block_id == block.block_id
                for candidate in oram.tree.peek_path(mapped_leaf)
            )
            assert found

    def test_remap_changes_leaf_distribution(self, small_config):
        oram = ObjectPathORAM(small_config)
        before = oram.position_map.peek(7)
        changed = False
        for _ in range(12):
            oram.read(7)
            if oram.position_map.peek(7) != before:
                changed = True
                break
            before = oram.position_map.peek(7)
        assert changed, "remapping never changed the block's path in 12 accesses"


class TestTrafficAccounting:
    def test_one_read_and_write_per_access(self, small_config):
        counter = TrafficCounter()
        oram = ObjectPathORAM(small_config, counter=counter)
        oram.access_many(list(range(50)))
        snap = counter.snapshot()
        assert snap.logical_accesses == 50
        # Stash hits can only reduce the count.
        assert snap.path_reads <= 50
        assert snap.path_reads >= 45
        assert snap.path_writes == snap.path_reads + snap.dummy_reads

    def test_bytes_proportional_to_path_size(self, small_config):
        counter = TrafficCounter()
        oram = ObjectPathORAM(small_config, counter=counter)
        oram.read(0)
        _, path_bytes = oram.tree.path_cost
        assert counter.snapshot().bytes_read == path_bytes

    def test_simulated_time_increases(self, small_path_oram):
        before = small_path_oram.simulated_time_s
        small_path_oram.read(0)
        assert small_path_oram.simulated_time_s > before


class TestBackgroundEviction:
    def test_dummy_access_changes_no_position(self, small_config):
        oram = ObjectPathORAM(small_config)
        positions = oram.position_map.as_array().copy()
        oram.dummy_access()
        assert np.array_equal(oram.position_map.as_array(), positions)

    def test_eviction_drains_stash_to_target(self):
        config = ORAMConfig(
            num_blocks=256,
            bucket_size=2,
            eviction_threshold=20,
            eviction_target=5,
            seed=3,
        )
        oram = ObjectPathORAM(config)
        rng = np.random.default_rng(0)
        for block in rng.integers(0, 256, size=400):
            oram.read(int(block))
        assert len(oram.stash) <= 20 or oram.statistics.dummy_reads > 0

    def test_disabled_eviction_never_issues_dummies(self, small_config):
        oram = ObjectPathORAM(small_config.with_overrides(background_eviction=False))
        rng = np.random.default_rng(0)
        for block in rng.integers(0, 256, size=300):
            oram.read(int(block))
        assert oram.statistics.dummy_reads == 0


class TestWriteOp:
    def test_write_op_updates_payload(self, small_config):
        oram = ObjectPathORAM(small_config)
        oram.access(12, AccessOp.WRITE, new_payload=b"v1")
        oram.access(12, AccessOp.WRITE, new_payload=b"v2")
        assert oram.read(12) == b"v2"

    def test_stash_hit_counter(self, small_config):
        oram = ObjectPathORAM(small_config)
        oram.read(1)
        hits_before = oram.statistics.stash_hits
        # The block may or may not be in the stash; force a hit by reading a
        # block known to be stashed if any exist.
        if oram.stash.block_ids:
            oram.read(oram.stash.block_ids[0])
            assert oram.statistics.stash_hits == hits_before + 1
