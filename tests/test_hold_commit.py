"""A training step on one request: ``hold_many``, the model step, ``commit``.

A hold serves its ids' bins as a read request does but writes none of the
paths it read back: their blocks wait in the stash.  The commit stores the
new rows and writes every held path back, in read order, reading none.
These cases hold every engine to the step's contract: blocks are conserved
and charged to the client while held, a read after the commit returns the
committed rows (the last of a repeated id), a rejected call or a failing
model step leaves nothing held and the bus as a successful step leaves it,
and the shipped engines stay field for field equal to their references in
``tests/oracle/`` through every step.
"""

import numpy as np
import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.datasets.kaggle import NUM_DENSE_FEATURES, SyntheticCriteoDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.exceptions import BlockNotFoundError, ConfigurationError
from repro.experiments.configs import build_oram_config

from oracle import build_engine, engine_state

NUM_BLOCKS = 512
DIM = 2
#: The tree families; each has a reference twin.
LABELS = ["PathORAM", "Normal/S8", "Fat/S8"]
ROWS = np.arange(NUM_BLOCKS * DIM, dtype=np.float32).reshape(NUM_BLOCKS, DIM)


def make_engine(label, fast=True, recursive=False, observer=None):
    # A 64-byte map budget puts the 512-block map on a recursion level.
    config = build_oram_config(
        NUM_BLOCKS, block_size_bytes=4 * DIM, seed=3,
        recursive_posmap=recursive, posmap_cutoff_bytes=64,
    )
    engine = build_engine(label, config, fast=fast, observer=observer)
    engine.load_payloads(ROWS)
    return engine


def steps(count=6, size=24, seed=8):
    """Minibatches of Zipf-like ids: repeats inside a step and across steps."""
    rng = np.random.default_rng(seed)
    return [np.minimum(rng.zipf(1.3, size=size) - 1, NUM_BLOCKS - 1) for _ in range(count)]


def stash_bytes(engine) -> int:
    """What the stash is charged: the client footprint minus the position
    map and the plan."""
    plan = getattr(engine, "plan", None)
    return (
        engine.client_memory_bytes()
        - engine.position_map.client_memory_bytes()
        - (plan.metadata_bytes() if plan is not None else 0)
    )


@pytest.mark.parametrize("fast", [True, False], ids=["shipped", "reference"])
@pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
@pytest.mark.parametrize("label", LABELS)
def test_an_open_hold_conserves_every_block_and_charges_the_client(label, recursive, fast):
    engine = make_engine(label, fast, recursive)
    assert bool(engine.position_map._levels) == recursive
    per_block = engine.config.block_size_bytes + engine.STASH_ENTRY_OVERHEAD_BYTES
    for ids in steps():
        before = len(engine.stash)
        rows = engine.hold_many(ids)
        # Every held block, and the rest of every path read, waits in the
        # stash and is charged to the client.
        assert engine.total_real_blocks() == NUM_BLOCKS
        assert set(ids.tolist()) <= set(engine.stash.block_ids)
        assert engine._held_paths
        assert stash_bytes(engine) == len(engine.stash) * per_block
        assert len(engine.stash) > before
        engine.commit(ids, np.asarray(rows) + 1.0)
        assert engine.total_real_blocks() == NUM_BLOCKS
        assert not engine._held_paths
        assert stash_bytes(engine) == len(engine.stash) * per_block


@pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
@pytest.mark.parametrize(
    "label, planned",
    [("PathORAM", False), ("Normal/S8", False), ("Normal/S8", True), ("Fat/S8", True)],
)
def test_shipped_and_reference_agree_through_held_steps(label, planned, recursive):
    batches = steps()
    twins = [make_engine(label, fast, recursive) for fast in (False, True)]
    if planned:
        for engine in twins:
            engine.apply_initial_placement(engine.preprocess(np.concatenate(batches)))
    for ids in batches:
        rows = [np.asarray(engine.hold_many(ids)) for engine in twins]
        assert np.array_equal(*rows)
        # Mid-step: stash, hold, map, slots, counters and footprint.
        reference, shipped = (engine_state(engine) for engine in twins)
        assert shipped == reference
        assert reference["held_paths"]
        for engine in twins:
            engine.commit(ids, rows[0] * 2.0)
        reference, shipped = (engine_state(engine) for engine in twins)
        assert shipped == reference and not reference["held_paths"]
    if planned:
        # The step announced is the step issued: every shipped bin by position.
        assert twins[1].bins_by_lookup == 0 and twins[1].bins_by_position > 0


@pytest.mark.parametrize(
    "label, recursive",
    [
        ("PathORAM", False), ("Normal/S8", False), ("Fat/S8", False),
        ("PathORAM", True), ("Fat/S8", True), ("Insecure", False),
    ],
)
@pytest.mark.parametrize("fast", [True, False], ids=["shipped", "reference"])
def test_a_read_after_commit_returns_the_committed_rows(label, recursive, fast):
    engine = make_engine(label, fast, recursive)
    ids = np.array([5, 9, 5, 300, 9, 5])
    engine.hold_many(ids)
    written = np.arange(ids.size * DIM, dtype=np.float32).reshape(-1, DIM) + 1000
    engine.commit(ids, written)
    # Duplicate ids keep their last value; an id no step named keeps its row.
    read = np.asarray(engine.access_many([5, 9, 300, 7]), dtype=np.float32)
    assert np.array_equal(read, np.stack([written[5], written[4], written[3], ROWS[7]]))
    assert engine.statistics.logical_accesses == 2 * ids.size + 4


@pytest.mark.parametrize("label", ["PathORAM", "Fat/S8", "Insecure"])
def test_a_mapping_store_keys_its_rows_by_python_int(label):
    # The hold keeps its ids as an int64 array; a store of payload objects
    # (no matrix loaded) still gets Python ints, from the commit and from a
    # LAORAM write request alike.
    config = build_oram_config(NUM_BLOCKS, block_size_bytes=4 * DIM, seed=3)
    engine = build_engine(label, config, fast=True)
    ids = np.array([5, 9, 5])
    engine.hold_many(ids)
    engine.commit(ids, ["a", "b", "c"])
    engine.write_many(np.array([7, 9]), ["d", "e"])
    assert {type(block_id) for block_id in engine._payloads} == {int}
    assert engine.access_many([5, 9, 7]) == ["c", "e", "d"]


@pytest.mark.parametrize("label", LABELS)
def test_a_step_of_stash_hits_reads_no_path_and_its_commit_ends_the_bin(label):
    # A step whose every id waits in the stash reads no path, and its commit
    # writes none back; it still ends the step as a bin: the eviction check
    # and the stash observation, as on the reference.
    # One-slot buckets leave blocks in the stash between steps.
    config = build_oram_config(NUM_BLOCKS, block_size_bytes=4 * DIM, bucket_size=1, seed=3)
    states = []
    for fast in (True, False):
        engine = build_engine(label, config, fast=fast)
        engine.load_payloads(ROWS)
        engine.counter.record_stash_history = True
        for ids in steps(count=20):
            engine.commit(ids, engine.hold_many(ids))
            if len(engine.stash):
                break
        ids = sorted(engine.stash.block_ids)[:4]
        assert ids
        reads = engine.statistics.path_reads
        rows = engine.hold_many(ids)
        assert engine.statistics.path_reads == reads and not engine._held_paths
        observed = len(engine.counter.stash_history)
        engine.commit(ids, rows)
        assert len(engine.counter.stash_history) == observed + 1
        states.append(engine_state(engine))
    assert states[0] == states[1]


@pytest.mark.parametrize("label", LABELS + ["Insecure"])
@pytest.mark.parametrize("fast", [True, False], ids=["shipped", "reference"])
def test_a_commit_of_other_ids_raises_and_holds_nothing_back(label, fast):
    engine = make_engine(label, fast)
    with pytest.raises(ConfigurationError):
        engine.commit([1], ROWS[:1])
    ids = [4, 8, 4]
    rows = engine.hold_many(ids)
    with pytest.raises(ConfigurationError):
        engine.hold_many([4])
    if label != "Insecure":
        # Nothing but the commit runs while the step is open.
        state = engine_state(engine)
        for call in (lambda: engine.access_many([1]), lambda: engine.access(1)):
            with pytest.raises(ConfigurationError):
                call()
        assert engine_state(engine) == state
    with pytest.raises(ConfigurationError):
        engine.commit([4, 8], np.asarray(rows)[:2] + 1.0)
    if label != "Insecure":
        assert engine.total_real_blocks() == NUM_BLOCKS
    # No row was stored, and the engine takes the next step.
    assert np.array_equal(np.asarray(engine.access_many([4, 8]), dtype=np.float32), ROWS[[4, 8]])
    engine.hold_many([8])
    engine.commit([8], ROWS[[8]] + 5.0)
    assert np.array_equal(np.asarray(engine.access_many([8]), dtype=np.float32), ROWS[[8]] + 5.0)


@pytest.mark.parametrize("label", LABELS + ["Insecure"])
@pytest.mark.parametrize("fast", [True, False], ids=["shipped", "reference"])
def test_an_update_the_store_rejects_releases_the_hold(label, fast):
    engine = make_engine(label, fast)
    store = SecureEmbeddingStore(engine, EmbeddingTable(NUM_BLOCKS, DIM, seed=4))
    ids = np.array([4, 8, 4])
    rows = store.fetch_rows(ids, hold=True)
    assert engine.hold_open
    for bad in (rows[:2], rows.reshape(-1)):
        with pytest.raises(ConfigurationError):
            store.update_rows(ids, bad)
        assert not engine.hold_open
        if label != "Insecure":
            assert not engine._held_paths
            assert engine.total_real_blocks() == NUM_BLOCKS
        # The held rows keep their values, and the next step runs.
        assert np.array_equal(store.fetch_rows(ids, hold=True), rows)
    with pytest.raises(ConfigurationError):
        store.update_rows([NUM_BLOCKS], rows[:1])
    assert not engine.hold_open
    store.fetch_rows(ids, hold=True)
    store.update_rows(ids, rows + 1.0)
    assert np.array_equal(store.fetch_rows(ids), rows + 1.0)


@pytest.mark.parametrize("label", LABELS)
def test_a_hold_that_raises_puts_its_blocks_back(label):
    twins = [make_engine(label, fast) for fast in (False, True)]
    for engine in twins:
        with pytest.raises(BlockNotFoundError):
            engine.hold_many([3, 17, 3, 40, NUM_BLOCKS + 1, 2])
        assert engine.total_real_blocks() == NUM_BLOCKS
        # No hold is open: the next request runs.
        engine.access_many([17, 2])
    reference, shipped = (engine_state(engine) for engine in twins)
    assert shipped == reference and not reference["held_paths"]


class TestAModelStepThatRaises:
    """The trainer commits the fetched rows unchanged from its ``finally``."""

    FAILING_STEP = 2

    class Boom(Exception):
        pass

    def train(self, label, fast, fail):
        dataset = SyntheticCriteoDataset(48, largest_table_rows=NUM_BLOCKS, seed=4)
        protected = dataset.largest_table_index
        small = tuple(s for i, s in enumerate(dataset.table_sizes) if i != protected)
        model = DLRMModel(NUM_DENSE_FEATURES, small, embedding_dim=DIM, seed=4)
        observer = MemoryBusObserver()
        config = build_oram_config(NUM_BLOCKS, block_size_bytes=4 * DIM, seed=3)
        engine = build_engine(label, config, fast=fast, observer=observer)
        store = SecureEmbeddingStore(engine, EmbeddingTable(NUM_BLOCKS, DIM, seed=4))
        fetches, after = [], {}
        fetch_rows, update_rows, backward = store.fetch_rows, store.update_rows, model.backward

        def fetch(ids, **kwargs):
            fetches.append((np.array(ids), fetch_rows(ids, **kwargs)))
            return fetches[-1][1]

        def update(ids, values):
            update_rows(ids, values)
            if len(fetches) == self.FAILING_STEP:
                after.update(engine_state(engine), paths=list(observer.observed_paths))

        def step_backward(*args, **kwargs):
            if fail and len(fetches) == self.FAILING_STEP:
                raise self.Boom
            return backward(*args, **kwargs)

        store.fetch_rows, store.update_rows, model.backward = fetch, update, step_backward
        trainer = ObliviousEmbeddingTrainer(store)
        if fail:
            with pytest.raises(self.Boom):
                trainer.train_dlrm_epoch(model, dataset, batch_size=16)
        else:
            trainer.train_dlrm_epoch(model, dataset, batch_size=16)
        return store, fetches, after

    @pytest.mark.parametrize("fast", [True, False], ids=["shipped", "reference"])
    @pytest.mark.parametrize("label", ["PathORAM", "Fat/S8"])
    def test_the_failed_step_commits_unchanged_rows_and_shows_the_same_bus(self, label, fast):
        store, fetches, failed = self.train(label, fast, fail=True)
        _, _, succeeded = self.train(label, fast, fail=False)
        engine = store.memory
        assert engine.total_real_blocks() == NUM_BLOCKS
        assert not failed["held_paths"]
        # The same paths, counters, map, stash and slots as the step that
        # trained: the bus cannot tell the two apart.
        assert failed == succeeded
        ids, rows = fetches[-1]
        assert np.array_equal(store.fetch_rows(ids), rows)
