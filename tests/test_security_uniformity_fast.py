"""Access-pattern uniformity at paper scale, on the fast engines.

``tests/test_security_uniformity.py`` checks the per-object engines on a
256-block tree; this suite re-runs the same adversary at the embedding-table
sizes the paper evaluates (2^17 – 2^20 blocks) where only the vectorized
engines are fast enough, and adds plan-free grouped reads to the matrix
(``Normal/S<k>.access_many`` with no plan installed): a bin amortises path
reads across ``k`` accesses, and the bin boundary must not correlate the
observable leaf stream.

At these tree sizes there are far more leaves than observations, so the raw
chi-square has no power; observed paths are coarsened onto 64 equal leaf
ranges (powers of two divide evenly) and uniformity is tested there.
Independence is checked as mutual information between 8-bin coarsened
addresses and paths, the same statistic ``analyze_path_obliviousness`` uses.

The last classes put the same adversary on the trainer's path: minibatches
held and committed (``hold_many`` / ``commit``) under an installed plan
whose remap leaves are taken by position, two epochs in a row, plus the
linkability checks the plan's consumption state exists for; and the step's
two halves on the bus: a hold shows what a read request shows, a commit
shows nothing.
"""

import numpy as np
import pytest

from repro.attacks.observer import MemoryBusObserver
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.datasets.zipf import ZipfTraceGenerator
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.experiments.configs import build_oram_config
from repro.utils.stats import chi_square_uniformity, mutual_information

from oracle import build_engine

NUM_ACCESSES = 4_000
COARSE_BINS = 64
ALPHA = 0.001


def coarsen(values: np.ndarray, domain: int, bins: int) -> np.ndarray:
    """Map integers in [0, domain) onto ``bins`` equal ranges."""
    return (np.asarray(values, dtype=np.int64) * bins) // domain


def observed_paths(label: str, num_blocks: int, trace, plan_free: bool = False):
    """Leaf stream of ``trace`` replayed, or served plan-free in bins."""
    observer = MemoryBusObserver()
    config = build_oram_config(num_blocks=num_blocks, seed=7)
    engine = build_engine(label, config, fast=True, observer=observer)
    if plan_free:
        engine.access_many(trace)
    else:
        engine.run_trace(trace)
    # LAORAM's bins dedup shared paths, so the observation stream can be
    # several times shorter than the trace; it must still be large enough
    # for a powered 64-bin chi-square (>= ~8 expected per bin).
    assert len(observer.observed_paths) >= 500
    return np.asarray(observer.observed_paths, dtype=np.int64), config.num_leaves


def make_trace(num_blocks: int, seed: int = 3) -> np.ndarray:
    return ZipfTraceGenerator(num_blocks, exponent=1.2, seed=seed).generate(
        NUM_ACCESSES
    ).addresses


class TestFastEngineUniformity:
    """Every fast family's leaf stream is uniform at 2^17 blocks."""

    @pytest.mark.parametrize("label", ["PathORAM", "Normal/S4"])
    def test_paths_uniform_at_scale(self, label):
        num_blocks = 1 << 17
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(label, num_blocks, trace)
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)


class TestBatchedAccessUniformity:
    """Grouped reads leak nothing the per-access protocol doesn't."""

    @pytest.mark.parametrize("num_blocks", [1 << 17, 1 << 20])
    def test_batched_pathoram_paths_uniform(self, num_blocks):
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(
            "Normal/S64", num_blocks, trace, plan_free=True
        )
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)

    def test_laoram_paths_uniform_at_paper_scale(self):
        num_blocks = 1 << 20
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths("Normal/S4", num_blocks, trace)
        coarse = coarsen(paths, num_leaves, COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)

    def test_batched_paths_independent_of_addresses(self):
        # Mutual information between coarsened addresses and the coarsened
        # observed leaves; an oblivious engine drives this to ~0 (the 0.25
        # threshold matches OblivionessReport.looks_oblivious).
        num_blocks = 1 << 17
        trace = make_trace(num_blocks)
        paths, num_leaves = observed_paths(
            "Normal/S64", num_blocks, trace, plan_free=True
        )
        length = min(len(trace), paths.size)
        info = mutual_information(
            coarsen(trace[:length], num_blocks, 8).tolist(),
            coarsen(paths[:length], num_leaves, 8).tolist(),
        )
        assert info < 0.25

    def test_batch_boundary_does_not_skew_leaf_stream(self):
        # Same trace, different bin sizes: each one's stream must be
        # uniform on its own (the adversary knows the superblock size).
        num_blocks = 1 << 17
        trace = make_trace(num_blocks, seed=13)
        for batch_size in (8, 64):
            paths, num_leaves = observed_paths(
                f"Normal/S{batch_size}", num_blocks, trace, plan_free=True
            )
            coarse = coarsen(paths, num_leaves, COARSE_BINS)
            result = chi_square_uniformity(coarse, COARSE_BINS)
            assert not result.rejects_uniformity(alpha=ALPHA)


class TestServeNowUnderAPlan:
    """Two epochs of minibatch training: the leaf stream of by-position remaps."""

    NUM_BLOCKS = 1 << 17
    DIM = 4

    @pytest.fixture(scope="class", params=["Fat/S8", "Normal/S4"])
    def training_run(self, request):
        observer = MemoryBusObserver()
        config = build_oram_config(
            num_blocks=self.NUM_BLOCKS, block_size_bytes=4 * self.DIM, seed=7
        )
        engine = build_engine(request.param, config, fast=True, observer=observer)
        store = SecureEmbeddingStore(
            engine, EmbeddingTable(self.NUM_BLOCKS, self.DIM, seed=7)
        )
        dataset = SyntheticXNLIDataset(
            96, vocabulary_size=self.NUM_BLOCKS, sequence_length=32, exponent=1.2, seed=3
        )

        # Every planned occurrence a remap hands out, whichever way: trusted
        # placement, a bin served by position, a per-id lookup.
        handed = []
        preprocess = engine.preprocess

        def recording_preprocess(trace, **kwargs):
            plan = preprocess(trace, **kwargs)
            epoch = []
            handed.append(epoch)
            first, by_position, lookup = (
                plan.take_first_occurrences, plan.take_bin_remaps, plan.consume_next_leaf
            )

            def take_first_occurrences(num_blocks):
                result = first(num_blocks)
                epoch.extend(plan.consumed_up_to.items())
                return result

            def take_bin_remaps(start_index, block_ids):
                # Per bin taken, each distinct id's next occurrence after
                # its last position in the bin.
                remaps, bins = by_position(start_index, block_ids)
                size = plan.superblock_size
                lo = start_index - plan.start_index
                ids = list(block_ids)
                offset = 0
                for _ in range(bins):
                    end = min(offset + size - (start_index + offset) % size, len(ids))
                    last = dict(zip(ids[offset:end], range(lo + offset, lo + end)))
                    later = plan.next[list(last.values())].tolist()
                    epoch.extend(
                        (block_id, plan.start_index + occ)
                        for block_id, occ in zip(last, later)
                        if occ >= 0
                    )
                    offset = end
                return remaps, bins

            def consume_next_leaf(block_id, after_index):
                leaf = lookup(block_id, after_index)
                if leaf is not None:
                    epoch.append((block_id, plan.consumed_up_to[block_id]))
                return leaf

            plan.take_first_occurrences = take_first_occurrences
            plan.take_bin_remaps = take_bin_remaps
            plan.consume_next_leaf = consume_next_leaf
            return plan

        engine.preprocess = recording_preprocess

        # Per step, the ids held and committed, and the leaf every one of
        # them is mapped to after each half.
        issued, remapped = [], []
        for verb in ("hold_many", "commit"):
            def logged(ids, *args, _call=getattr(engine, verb)):
                result = _call(ids, *args)
                issued.append(np.array(ids))
                remapped.append(engine.position_map.peek_many(ids))
                return result
            setattr(engine, verb, logged)

        trainer = ObliviousEmbeddingTrainer(store)
        model = XLMRClassifier(self.DIM, seed=7)
        bins = []
        for _ in range(2):
            trainer.train_xlmr_epoch(model, dataset)
            bins.append((engine.bins_by_position, engine.bins_by_lookup))
        return {
            "paths": np.asarray(observer.observed_paths, dtype=np.int64),
            "num_leaves": config.num_leaves,
            "size": engine.superblock_size,
            "issued": issued,
            "remapped": remapped,
            "handed": handed,
            "bins": bins,
        }

    def test_every_bin_took_its_remaps_by_position(self, training_run):
        # One held request per step: every row is read once an epoch.
        accesses = 96 * 32
        assert training_run["bins"] == [(accesses // training_run["size"], 0)] * 2
        assert len(training_run["paths"]) >= 500

    def test_paths_uniform(self, training_run):
        coarse = coarsen(training_run["paths"], training_run["num_leaves"], COARSE_BINS)
        result = chi_square_uniformity(coarse, COARSE_BINS)
        assert not result.rejects_uniformity(alpha=ALPHA)

    def test_paths_independent_of_addresses(self, training_run):
        # The held requests are the ones that read paths.
        trace = np.concatenate(training_run["issued"][::2])
        paths = training_run["paths"]
        length = min(len(trace), paths.size)
        info = mutual_information(
            coarsen(trace[:length], self.NUM_BLOCKS, 8).tolist(),
            coarsen(paths[:length], training_run["num_leaves"], 8).tolist(),
        )
        assert info < 0.25

    def test_no_planned_occurrence_is_handed_out_twice(self, training_run):
        # Handing a block the path of the same future occurrence twice
        # would show the adversary one leaf at two of its accesses.
        assert len(training_run["handed"]) == 2
        for epoch in training_run["handed"]:
            assert len(epoch) > 1000
            assert len(set(epoch)) == len(epoch)

    def test_a_step_remaps_once_and_consecutive_steps_to_different_leaves(
        self, training_run
    ):
        # A commit names the held ids and remaps nothing: the leaf a block
        # was handed when held is the one it is committed under.
        issued, remapped = training_run["issued"], training_run["remapped"]
        for hold in range(0, len(issued), 2):
            assert np.array_equal(issued[hold], issued[hold + 1])
            assert np.array_equal(remapped[hold], remapped[hold + 1])
        # A block two consecutive steps hold is remapped by each: two
        # uniform draws over the leaves coincide once in num_leaves, the
        # same occurrence handed to both would coincide every time.
        pairs = same = 0
        holds = issued[::2]
        leaves = remapped[::2]
        for step in range(1, len(holds)):
            later = dict(zip(holds[step].tolist(), leaves[step].tolist()))
            for block_id, leaf in zip(holds[step - 1].tolist(), leaves[step - 1].tolist()):
                if block_id in later:
                    pairs += 1
                    same += leaf == later[block_id]
        assert pairs > 1000
        assert same <= 5 * pairs / training_run["num_leaves"] + 2


class TestAHeldStepOnTheBus:
    """A step's two halves as the adversary sees them, for two id sets of one size.

    From the same engine state a one-bin hold reads exactly the paths a read
    request reads: the same remaps drawn, the same blocks missing.  Over
    several bins the two part in one way only: the hold writes no path back
    until its commit, so a block an earlier path of the same step brought
    into the stash is still there, a stash hit, where the read request had
    written it back and reads its path again.  So a held step's reads are
    the read request's reads with those left out, in the same order.  Each
    one is one leaf per distinct missing path, the stream the chi-square
    and MI cases above test over trained epochs.  A commit reads no path,
    whatever the step, and writes back one path per path the hold read.
    """

    NUM_BLOCKS = 1 << 12
    STEP = 64

    @pytest.mark.parametrize(
        "label, planned",
        [("PathORAM", False), ("Fat/S8", False), ("Fat/S8", True), ("Normal/S4", True)],
    )
    def test_a_hold_shows_a_read_and_a_commit_shows_no_read(self, label, planned):
        size = int(label.partition("/S")[2] or 1)
        rng = np.random.default_rng(5)
        warm = rng.integers(0, self.NUM_BLOCKS, size=4 * self.STEP)
        config = build_oram_config(num_blocks=self.NUM_BLOCKS, block_size_bytes=8, seed=9)
        rows = np.zeros((self.NUM_BLOCKS, 2), dtype=np.float32)

        def twins(ids):
            """Two engines in one state, with ``ids`` planned next under a plan."""
            engines = [
                build_engine(label, config, fast=True, observer=MemoryBusObserver())
                for _ in range(2)
            ]
            for engine in engines:
                engine.load_payloads(rows)
                engine.access_many(warm)
                if planned:
                    engine.preprocess(ids, start_index=engine.trace_cursor)
            return engines

        def is_subsequence(part, whole):
            rest = iter(whole)
            return all(leaf in rest for leaf in part)

        # One bin: distinct ids, then (but on PathORAM's one-id bin) repeats.
        bins = [rng.choice(self.NUM_BLOCKS, size=size, replace=False)]
        bins.append(rng.integers(0, 2, size=size) if size > 1 else bins[0] + 1)
        # Two multi-bin steps of one size: distinct ids, and Zipf-like repeats.
        steps = [
            rng.choice(self.NUM_BLOCKS, size=self.STEP, replace=False),
            rng.integers(0, self.NUM_BLOCKS // 8, size=self.STEP),
        ]
        for ids in bins + steps:
            held, read = twins(ids)
            fetched = held.hold_many(ids)
            read.access_many(ids)
            bus, other = held.observer, read.observer
            assert not any(bus.observed_dummy_flags) and not any(other.observed_dummy_flags)
            if ids.size == size:
                assert bus.observed_paths == other.observed_paths
            else:
                assert is_subsequence(bus.observed_paths, other.observed_paths)
            seen = len(bus.observed_paths)
            held.commit(ids, np.asarray(fetched) + 1.0)
            assert len(bus.observed_paths) == seen
            assert held.statistics.path_writes == held.statistics.path_reads == seen
            assert held.total_real_blocks() == self.NUM_BLOCKS
