"""Cross-family equivalence harness: the shipped engines vs their references.

One parametrized suite asserts, for every engine family (pathoram, laoram)
against its per-object reference in ``tests/oracle/``, on uniform and Zipf
traces and across seeds, that a fixed seed produces:

* bit-identical :class:`~repro.memory.accounting.TrafficSnapshot` counters,
* identical position maps and stash contents (same ids, same order), and
* block conservation plus position-map / tree / stash coherence on both
  backends.

This replaces the ad-hoc PathORAM-only equivalence checks that used to live
in ``tests/test_array_engine.py``: the guarantee "decision-identical for a
fixed seed" is enforced uniformly for every family (``fast=True`` builds the
shipped engine, ``fast=False`` the reference), so a divergence introduced in
any family's hot path fails here before it can skew a baseline comparison.
"""

import numpy as np
import pytest

from repro.core.laoram import LAORAMClient
from repro.datasets.zipf import ZipfTraceGenerator
from repro.experiments import configs
from repro.oram.path_oram import PathORAM
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory

from oracle import build_engine
from conftest import node_ids

NUM_BLOCKS = 256
NUM_ACCESSES = 1_200

#: Every family with a fast twin, via the configuration label the harness
#: uses to build it; LAORAM at each superblock size the paper evaluates on
#: the uniform tree, and on the fat tree.
FAMILY_LABELS = ("PathORAM", "Normal/S2", "Normal/S4", "Normal/S8", "Fat/S4")


def make_trace(workload: str, seed: int) -> np.ndarray:
    if workload == "uniform":
        rng = np.random.default_rng(seed)
        return rng.integers(0, NUM_BLOCKS, size=NUM_ACCESSES).astype(np.int64)
    return ZipfTraceGenerator(NUM_BLOCKS, exponent=1.2, seed=seed).generate(
        NUM_ACCESSES
    ).addresses


def run_engine(
    label: str,
    seed: int,
    trace: np.ndarray,
    fast: bool,
    fat_tree: bool = False,
    plan_free: bool = False,
):
    """Replay ``trace`` on a fresh engine; ``plan_free`` serves it instead.

    ``access_many`` on a ``Normal/S<k>`` label with no plan installed is the
    grouped-read protocol on a plan-free engine: bins of ``k`` accesses,
    each distinct path fetched once, uniform remaps.
    """
    config = ORAMConfig(
        num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=seed, fat_tree=fat_tree
    )
    engine = build_engine(label, config, fast=fast)
    if plan_free:
        engine.access_many(trace)
    else:
        engine.run_trace(trace)
    return engine


def assert_engine_consistent(engine) -> None:
    """Block conservation plus position-map / tree-leaf / stash coherence."""
    num_blocks = engine.config.num_blocks
    depth = engine.config.depth
    pm = engine.position_map
    assert engine.total_real_blocks() == num_blocks
    seen: list[int] = []
    for level, node, ids in node_ids(engine.tree):
        for block_id in ids.tolist():
            seen.append(block_id)
            # Path-prefix invariant: a stored block's assigned path must
            # pass through the bucket holding it.
            assert pm.peek(block_id) >> (depth - level) == node
    for block_id in engine.stash.block_ids:
        seen.append(block_id)
        # The stash's leaf mirror must agree with the position map.
        assert engine.stash.leaf_of(block_id) == pm.peek(block_id)
    assert sorted(seen) == list(range(num_blocks))


class TestCrossFamilyEquivalence:
    """Fixed seed => bit-identical decisions on both storage backends."""

    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("workload", ["uniform", "zipf"])
    @pytest.mark.parametrize("label", FAMILY_LABELS)
    def test_snapshots_bit_identical(self, label, workload, seed):
        trace = make_trace(workload, seed)
        reference = run_engine(label, seed, trace, fast=False)
        fast = run_engine(label, seed, trace, fast=True)

        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert list(fast.stash.block_ids) == list(reference.stash.block_ids)
        assert_engine_consistent(reference)
        assert_engine_consistent(fast)

    @pytest.mark.parametrize("label", FAMILY_LABELS)
    def test_fat_tree_snapshots_bit_identical(self, label):
        # The fat tree's per-level capacities exercise the variable-capacity
        # slot arithmetic (bulk placement, the path read and the
        # write-back kernels) that the uniform-tree cases cannot.
        trace = make_trace("zipf", 17)
        reference = run_engine(label, 17, trace, fast=False, fat_tree=True)
        fast = run_engine(label, 17, trace, fast=True, fat_tree=True)
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert list(fast.stash.block_ids) == list(reference.stash.block_ids)
        assert_engine_consistent(fast)

    @pytest.mark.parametrize("label", FAMILY_LABELS)
    def test_payloads_round_trip_identically(self, label):
        rng = np.random.default_rng(3)
        writes = rng.integers(0, NUM_BLOCKS, size=40).tolist()
        reads = rng.integers(0, NUM_BLOCKS, size=120).tolist()
        outputs = []
        for fast in (False, True):
            config = ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=5)
            engine = build_engine(label, config, fast=fast)
            for offset, block_id in enumerate(writes):
                engine.write(block_id, f"payload-{offset}")
            outputs.append(engine.access_many(reads))
        assert outputs[0] == outputs[1]


class TestBatchedAccessEquivalence:
    """Plan-free grouped reads (``Normal/S<k>.access_many``) are backend-consistent."""

    @pytest.mark.parametrize("batch_size", [4, 16, 64])
    def test_batched_object_vs_array_bit_identical(self, batch_size):
        # Both storage backends run the same bin control flow, so the
        # object client is the reference for the array client's bins.
        trace = make_trace("zipf", 23)
        label = f"Normal/S{batch_size}"
        reference = run_engine(label, 23, trace, fast=False, plan_free=True)
        fast = run_engine(label, 23, trace, fast=True, plan_free=True)
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert list(fast.stash.block_ids) == list(reference.stash.block_ids)
        assert_engine_consistent(reference)
        assert_engine_consistent(fast)

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_batched_fat_tree_bit_identical(self, batch_size):
        trace = make_trace("uniform", 31)
        label = f"Fat/S{batch_size}"
        reference = run_engine(label, 31, trace, fast=False, plan_free=True)
        fast = run_engine(label, 31, trace, fast=True, plan_free=True)
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert list(fast.stash.block_ids) == list(reference.stash.block_ids)

    def test_batched_payloads_round_trip(self):
        # write_many + access_many through plan-free bins must return
        # exactly what a per-access engine returns, duplicates included.
        rng = np.random.default_rng(13)
        writes = rng.integers(0, NUM_BLOCKS, size=80).tolist()
        reads = (
            rng.integers(0, NUM_BLOCKS, size=200).tolist() + writes[:10] + writes[:10]
        )
        outputs = []
        for label, fast in (
            ("PathORAM", False), ("PathORAM", True), ("Normal/S16", True)
        ):
            config = ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=32, seed=5)
            engine = build_engine(label, config, fast=fast)
            engine.write_many(
                writes, [f"payload-{i}" for i in range(len(writes))]
            )
            outputs.append(engine.access_many(reads))
        assert outputs[0] == outputs[1] == outputs[2]


class TestFastEngineCoverage:
    """Each tree family ships one engine, its reference is its twin, and the
    library ignores ``fast``."""

    def test_every_family_has_a_fast_twin(self):
        config = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=1)
        expected = {"PathORAM": PathORAM, "Fat/S4": LAORAMClient}
        assert configs.ENGINE_CLASSES == {"pathoram": PathORAM, "laoram": LAORAMClient}
        for label, engine_cls in expected.items():
            for fast in (False, True):
                engine = configs.build_engine(label, config, fast=fast)
                assert type(engine) is engine_cls

    def test_fast_is_ignored_for_the_insecure_baseline(self):
        config = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=1)
        for fast in (False, True):
            engine = configs.build_engine("Insecure", config, fast=fast)
            assert type(engine) is InsecureMemory
