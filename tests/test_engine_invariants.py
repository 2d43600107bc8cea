"""Invariants every tree engine keeps, on both backends and both tree shapes.

PathORAM and LAORAM each have a per-object reference engine and an array
twin, and each runs on the uniform-bucket tree and on the fat tree.  The
cases here hold for all eight: every block stored exactly once on the path
its position-map leaf names, payloads that survive unrelated traffic,
refused out-of-range ids, and server traffic that is whole paths only.
"""

import numpy as np
import pytest

from repro.exceptions import BlockNotFoundError
from repro.oram.config import ORAMConfig

from test_engine_equivalence import assert_engine_consistent

from oracle import build_engine

NUM_BLOCKS = 128

#: (label, fast, fat_tree): a ``Fat/S<k>`` label puts LAORAM on the fat
#: tree itself; PathORAM takes the shape from its config.
FAMILIES = (("PathORAM", ("PathORAM", "PathORAM")), ("LAORAM", ("Normal/S4", "Fat/S4")))
ENGINES = [
    pytest.param(label, fast, fat_tree, id=f"{name}-{backend}-{shape}")
    for name, labels in FAMILIES
    for fat_tree, label, shape in zip((False, True), labels, ("normal", "fat"))
    for fast, backend in ((False, "reference"), (True, "array"))
]


def make_engine(label: str, fast: bool, fat_tree: bool):
    config = ORAMConfig(
        num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=9, fat_tree=fat_tree
    )
    engine = build_engine(label, config, fast=fast)
    assert engine.tree.bucket_capacities[0] == (8 if fat_tree else 4)
    return engine


def random_reads(engine, count: int, seed: int) -> None:
    for block_id in np.random.default_rng(seed).integers(0, NUM_BLOCKS, size=count):
        engine.read(int(block_id))


@pytest.mark.parametrize("label,fast,fat_tree", ENGINES)
class TestEngineInvariants:
    def test_construction_places_every_block_once(self, label, fast, fat_tree):
        engine = make_engine(label, fast, fat_tree)
        assert engine.total_real_blocks() == NUM_BLOCKS
        assert_engine_consistent(engine)

    def test_blocks_are_conserved_under_traffic(self, label, fast, fat_tree):
        engine = make_engine(label, fast, fat_tree)
        random_reads(engine, 200, seed=1)
        engine.access_many(np.random.default_rng(2).integers(0, NUM_BLOCKS, size=100))
        engine.dummy_access()
        assert_engine_consistent(engine)

    def test_payload_round_trip(self, label, fast, fat_tree):
        engine = make_engine(label, fast, fat_tree)
        engine.write(42, b"spam")
        assert engine.read(42) == b"spam"

    def test_payload_survives_traffic(self, label, fast, fat_tree):
        engine = make_engine(label, fast, fat_tree)
        engine.write(3, b"keep")
        random_reads(engine, 200, seed=0)
        assert engine.read(3) == b"keep"

    def test_access_many_preserves_order(self, label, fast, fat_tree):
        engine = make_engine(label, fast, fat_tree)
        engine.load_payloads({i: f"row-{i}".encode() for i in range(10)})
        assert engine.access_many([3, 1, 4, 1, 5]) == [
            b"row-3", b"row-1", b"row-4", b"row-1", b"row-5"
        ]

    @pytest.mark.parametrize("block_id", [NUM_BLOCKS, -1])
    def test_out_of_range_rejected(self, label, fast, fat_tree, block_id):
        engine = make_engine(label, fast, fat_tree)
        with pytest.raises(BlockNotFoundError):
            engine.read(block_id)
        assert engine.statistics.logical_accesses == 0
        assert_engine_consistent(engine)

    def test_server_traffic_is_whole_paths(self, label, fast, fat_tree):
        # Real and dummy reads alike move every slot of every bucket on
        # the path, so the byte and bucket counters are multiples of one
        # path's cost: what the server sees does not depend on the block.
        engine = make_engine(label, fast, fat_tree)
        random_reads(engine, 150, seed=4)
        engine.dummy_access()
        stats = engine.statistics
        path_buckets = engine.tree.depth + 1
        path_bytes = sum(engine.tree.bucket_capacities) * engine.tree.stored_block_bytes
        reads = stats.path_reads + stats.dummy_reads
        assert stats.dummy_reads >= 1
        assert (stats.buckets_read, stats.bytes_read) == (
            reads * path_buckets, reads * path_bytes
        )
        assert (stats.buckets_written, stats.bytes_written) == (
            stats.path_writes * path_buckets, stats.path_writes * path_bytes
        )
        assert engine.server_memory_bytes == engine.tree.total_slots * (
            engine.tree.stored_block_bytes
        )
