"""Tests for the ORAM-backed embedding store."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.datasets.kaggle import NUM_DENSE_FEATURES, SyntheticCriteoDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.oram.path_oram import PathORAM
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory

from oracle import ObjectLAORAMClient, ObjectPathORAM, build_engine


def make_store(engine_factory, num_rows=64, dim=8):
    config = ORAMConfig(num_blocks=num_rows, block_size_bytes=dim * 4, seed=21)
    engine = engine_factory(config)
    table = EmbeddingTable(num_rows, dim, seed=5)
    return SecureEmbeddingStore(engine, table), table


class TestSecureEmbeddingStore:
    @pytest.mark.parametrize(
        "factory",
        [
            ObjectPathORAM,
            InsecureMemory,
            lambda cfg: ObjectLAORAMClient(LAORAMConfig(oram=cfg, superblock_size=4)),
            lambda cfg: ObjectLAORAMClient(
                LAORAMConfig(
                    oram=cfg.with_overrides(fat_tree=True), superblock_size=8
                )
            ),
        ],
        ids=["pathoram", "insecure", "laoram", "laoram-fat"],
    )
    def test_fetch_matches_plaintext_table(self, factory):
        store, table = make_store(factory)
        ids = np.array([0, 5, 9, 33])
        fetched = store.fetch_rows(ids)
        assert np.allclose(fetched, table.weights[ids])

    def test_update_then_fetch_round_trip(self):
        store, _ = make_store(ObjectPathORAM)
        new_values = np.full((2, 8), 3.5, dtype=np.float32)
        store.update_rows([10, 11], new_values)
        assert np.allclose(store.fetch_rows([10, 11]), 3.5)

    def test_updates_survive_other_traffic(self):
        store, _ = make_store(ObjectPathORAM)
        store.update_rows([7], np.full((1, 8), -1.0, dtype=np.float32))
        rng = np.random.default_rng(0)
        store.fetch_rows(rng.integers(0, 64, size=50))
        assert np.allclose(store.fetch_rows([7]), -1.0)

    def test_materialize_recovers_full_table(self):
        store, table = make_store(ObjectPathORAM, num_rows=32)
        recovered = store.materialize()
        assert np.allclose(recovered.weights, table.weights)

    def test_laoram_batched_fetch_counts_every_access(self):
        store, _ = make_store(
            lambda cfg: ObjectLAORAMClient(LAORAMConfig(oram=cfg, superblock_size=4))
        )
        store.fetch_rows(np.arange(16))
        assert store.memory.statistics.logical_accesses == 16

    def test_table_larger_than_oram_rejected(self):
        config = ORAMConfig(num_blocks=16, block_size_bytes=32)
        engine = ObjectPathORAM(config)
        table = EmbeddingTable(32, 8, seed=0)
        with pytest.raises(ConfigurationError):
            SecureEmbeddingStore(engine, table)

    def test_invalid_row_ids_rejected(self):
        store, _ = make_store(ObjectPathORAM)
        with pytest.raises(ConfigurationError):
            store.fetch_rows([])
        with pytest.raises(ConfigurationError):
            store.fetch_rows([999])
        with pytest.raises(ConfigurationError):
            store.update_rows([0], np.ones((1, 3), dtype=np.float32))


FAST_LABELS = ["PathORAM", "Normal/S4", "Fat/S4"]


def make_fast_store(label, num_rows=64, dim=8, num_blocks=None):
    config = build_oram_config(num_blocks or num_rows, block_size_bytes=dim * 4, seed=21)
    table = EmbeddingTable(num_rows, dim, seed=5)
    return SecureEmbeddingStore(build_engine(label, config, fast=True), table), table


@pytest.mark.parametrize("label", FAST_LABELS)
class TestPayloadMatrixRoundTrip:
    """The store over an array engine: one payload matrix, gather and scatter."""

    def test_duplicate_ids_in_one_update_keep_the_last_value(self, label):
        store, _ = make_fast_store(label)
        ids = [3, 9, 3, 20, 9, 3]
        values = np.arange(6 * 8, dtype=np.float32).reshape(6, 8)
        store.update_rows(ids, values)
        assert np.array_equal(store.fetch_rows([3, 9, 20]), values[[5, 4, 3]])

    def test_caller_may_reuse_values_after_update(self, label):
        store, _ = make_fast_store(label)
        values = np.full((2, 8), 2.5, dtype=np.float32)
        store.update_rows([4, 5], values)
        values[:] = -1.0
        assert np.array_equal(store.fetch_rows([4, 5]), np.full((2, 8), 2.5))

    def test_fetched_rows_do_not_alias_the_store(self, label):
        store, table = make_fast_store(label)
        fetched = store.fetch_rows([1, 2, 1])
        fetched[:] = 99.0
        assert np.array_equal(store.fetch_rows([1, 2]), table.weights[[1, 2]])

    def test_table_smaller_than_the_oram(self, label):
        store, table = make_fast_store(label, num_rows=40, num_blocks=64)
        assert np.array_equal(store.materialize().weights, table.weights)
        # Blocks past the table are still blocks: they read as zero rows.
        assert not np.any(store.memory.access_many([63])[0])


#: Every kind of engine a store is built on: (label, fast).
LENDING_ENGINES = [
    ("Insecure", False),
    ("PathORAM", False),
    ("PathORAM", True),
    ("Fat/S4", False),
    ("Fat/S4", True),
]


def test_the_callers_table_is_never_written():
    """The table is lent read-only: training, duplicate writes and in-place
    writes into served rows all leave it bit-equal, on every engine."""
    rows, dim = 256, 8
    trained = []
    for label, fast in LENDING_ENGINES:
        dataset = SyntheticCriteoDataset(48, largest_table_rows=rows, seed=3)
        small = tuple(
            size for index, size in enumerate(dataset.table_sizes)
            if index != dataset.largest_table_index
        )
        model = DLRMModel(NUM_DENSE_FEATURES, small, embedding_dim=dim, seed=3)
        table = EmbeddingTable(rows, dim, seed=5)
        initial = table.weights.copy()
        engine = build_engine(
            label, build_oram_config(rows, block_size_bytes=4 * dim, seed=21), fast=fast
        )
        store = SecureEmbeddingStore(engine, table)
        trainer = ObliviousEmbeddingTrainer(store)
        for _ in range(2):
            trainer.train_dlrm_epoch(model, dataset, batch_size=8)
        ids = np.random.default_rng(4).integers(0, 12, size=96)
        store.update_rows(ids, np.arange(96 * dim, dtype=np.float32).reshape(96, dim))
        assert table.weights.tobytes() == initial.tobytes(), (label, fast)

        before = store.materialize().weights
        for row in (engine.access(int(ids[0])), *engine.access_many([3, 200, 3])):
            if row.flags.writeable:
                # The fast LAORAM client serves a fresh gather: a private copy.
                row[:] = -5.0
            else:
                with pytest.raises(ValueError):
                    row[:] = -5.0
        assert table.weights.tobytes() == initial.tobytes(), (label, fast)
        trained.append(store.materialize().weights)
        assert np.array_equal(trained[-1], before), (label, fast)
    for weights in trained[1:]:
        assert np.array_equal(weights, trained[0])


@pytest.mark.parametrize("label", FAST_LABELS)
def test_store_build_retains_the_index_not_a_copy(label):
    """A 4 MiB table costs the store its 256 KiB id -> overlay-row index."""
    rows, dim = 1 << 16, 16
    config = build_oram_config(rows, block_size_bytes=4 * dim, seed=1)
    engine = build_engine(label, config, fast=True)
    table = EmbeddingTable(rows, dim, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        store = SecureEmbeddingStore(engine, table)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(store.fetch_rows([0, rows - 1]), table.weights[[0, rows - 1]])
    index_bytes = rows * np.dtype(np.int32).itemsize
    assert retained <= index_bytes + 32 * 1024, f"store build retained {retained} B"


def test_payload_dict_still_loads_and_overlays_a_matrix():
    """``load_payloads`` keeps its mapping form; what was loaded decides the store."""
    config = build_oram_config(32, block_size_bytes=16, seed=2)
    engine = build_engine("Fat/S4", config, fast=True)
    engine.load_payloads({3: b"three"})
    assert isinstance(engine._payloads, dict)
    assert engine.access_many([3, 4]) == [b"three", None]
    engine.load_payloads(np.zeros((32, 4), dtype=np.float32))
    engine.load_payloads({5: np.ones(4, dtype=np.float32)})
    assert np.array_equal(engine.access_many([5, 6]), [[1.0] * 4, [0.0] * 4])
    with pytest.raises(BlockNotFoundError):
        engine.load_payloads(np.zeros((33, 4), dtype=np.float32))


#: ``load_payloads`` arguments a 256-block engine must refuse whole.
REJECTED_LOADS = {
    "id far past the end": {0: "a", 5: "b", 4096: "c"},
    "id one past the end": {255: "a", 256: "b"},
    "negative id": {0: "a", -1: "b"},
    "more rows than blocks": np.ones((300, 2), dtype=np.float32),
    "1-D matrix": np.ones(256, dtype=np.float32),
    "3-D matrix": np.ones((2, 256, 2), dtype=np.float32),
}

load_engines = pytest.mark.parametrize(
    "factory", [InsecureMemory, ObjectPathORAM, PathORAM], ids=["insecure", "object", "array"]
)


@load_engines
def test_a_block_past_the_table_reads_a_zero_row(factory):
    """One answer on every backend: a 40-row matrix in a 64-block engine."""
    engine = factory(ORAMConfig(num_blocks=64, block_size_bytes=32, seed=21))
    table = EmbeddingTable(40, 8, seed=5)
    store = SecureEmbeddingStore(engine, table)
    assert np.array_equal(store.fetch_rows(np.arange(40)), table.weights)
    for row in (engine.access(63), *engine.access_many([40, 63])):
        assert row.shape == (8,) and not np.any(row)
    engine.write(63, np.ones(8, dtype=np.float32))
    assert np.array_equal(engine.access_many([62, 63]), [[0.0] * 8, [1.0] * 8])


@load_engines
@pytest.mark.parametrize("kind", list(REJECTED_LOADS))
def test_a_rejected_load_installs_nothing(factory, kind):
    """One check runs before any install: a bad id or shape anywhere leaves every block as it was."""
    engine = factory(ORAMConfig(num_blocks=256, block_size_bytes=16, seed=3))
    with pytest.raises(BlockNotFoundError):
        engine.load_payloads(REJECTED_LOADS[kind])
    assert engine.access_many(list(range(256))) == [None] * 256


@load_engines
@pytest.mark.parametrize("loaded", ["mapping", "matrix"])
def test_a_rejected_load_keeps_what_was_loaded(factory, loaded):
    """After an accepted load, no refused one overwrites a block, even one it names validly."""
    engine = factory(ORAMConfig(num_blocks=256, block_size_bytes=16, seed=3))
    matrix = np.arange(512, dtype=np.float32).reshape(256, 2)
    if loaded == "matrix":
        engine.load_payloads(matrix.copy())
        expected = matrix
    else:
        engine.load_payloads({block_id: matrix[block_id].copy() for block_id in (0, 5, 255)})
        expected = np.zeros_like(matrix)
        expected[[0, 5, 255]] = matrix[[0, 5, 255]]
    for payloads in REJECTED_LOADS.values():
        with pytest.raises(BlockNotFoundError):
            engine.load_payloads(payloads)
    rows = engine.access_many(list(range(256)))
    if loaded == "mapping":
        # Blocks the accepted load did not name still hold no payload.
        assert [i for i, row in enumerate(rows) if row is not None] == [0, 5, 255]
        rows = [np.zeros(2, dtype=np.float32) if row is None else row for row in rows]
    assert np.array_equal(np.asarray(rows), expected)


def test_payload_is_served_only_from_the_stash():
    """A block the engine cannot find is an error, matrix row or not."""
    store, _ = make_fast_store("Fat/S4")
    engine = store.memory
    leaf = int(engine.position_map.peek(7))
    if 7 in engine.stash:
        engine.stash.pop(7)
    else:
        engine.tree.remove_many(np.array([7]), np.array([leaf]))
    with pytest.raises(BlockNotFoundError):
        store.fetch_rows([7])


@pytest.mark.parametrize("label", FAST_LABELS)
def test_store_build_allocates_a_constant_number_of_objects(label):
    """No Python object per row: O(1) live blocks, any table size."""

    def live_blocks_after_build(num_rows):
        config = build_oram_config(num_rows, block_size_bytes=32, seed=1)
        engine = build_engine(label, config, fast=True)
        table = EmbeddingTable(num_rows, 8, seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            store = SecureEmbeddingStore(engine, table)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert store.num_rows == num_rows
        return sum(stat.count_diff for stat in after.compare_to(before, "filename")
                   if stat.count_diff > 0)

    small, large = live_blocks_after_build(1 << 8), live_blocks_after_build(1 << 12)
    assert large <= small + 8
    assert large < 64
