"""Tests for the adversarial observers and leakage analysis."""

import numpy as np
import pytest

from repro.attacks.analysis import (
    CountAdvantage,
    analyze_address_leakage,
    analyze_path_obliviousness,
    count_distinguisher,
    reads_per_request,
    recover_access_histogram,
)
from repro.attacks.observer import CuriousOSObserver, MemoryBusObserver
from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory
from repro.utils.rng import make_rng

from oracle import ObjectPathORAM, build_engine


class TestObservers:
    def test_memory_bus_observer_records_both_kinds(self):
        observer = MemoryBusObserver()
        observer.observe_address(5)
        observer.observe_path(3, dummy=True)
        assert observer.observed_addresses == [5]
        assert observer.observed_paths == [3]
        assert observer.observed_dummy_flags == [True]
        assert observer.num_observations == 2

    def test_reset(self):
        observer = MemoryBusObserver()
        observer.observe_address(1)
        observer.reset()
        assert observer.num_observations == 0

    def test_curious_os_page_and_cacheline_views(self):
        observer = CuriousOSObserver(
            block_size_bytes=128, page_size_bytes=4096, cache_line_bytes=128
        )
        observer.observe_address(33)  # byte 4224 -> page 1, line 33
        assert observer.observed_pages == [1]
        assert observer.observed_cache_lines == [33]

    def test_curious_os_recovers_block_ids_at_cacheline_granularity(self):
        observer = CuriousOSObserver(block_size_bytes=128, cache_line_bytes=128)
        for block in (7, 123, 7):
            observer.observe_address(block)
        assert observer.recovered_block_ids() == [7, 123, 7]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CuriousOSObserver(block_size_bytes=0)
        with pytest.raises(ConfigurationError):
            CuriousOSObserver(block_size_bytes=64, page_size_bytes=32, cache_line_bytes=64)


class TestLeakageAnalysis:
    def test_histogram_recovery(self):
        assert recover_access_histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_insecure_baseline_leaks_everything(self):
        config = ORAMConfig(num_blocks=64, block_size_bytes=128)
        observer = CuriousOSObserver(block_size_bytes=128, cache_line_bytes=128)
        memory = InsecureMemory(config, observer=observer)
        rng = make_rng(0)
        addresses = rng.integers(0, 64, size=400).tolist()
        for address in addresses:
            memory.read(int(address))
        report = analyze_address_leakage(addresses, observer.recovered_block_ids())
        assert report.top1_recovery_rate == 1.0
        assert report.leakage_fraction > 0.95

    def test_oram_path_stream_reveals_little(self):
        config = ORAMConfig(num_blocks=256, block_size_bytes=64, seed=8)
        observer = MemoryBusObserver()
        oram = ObjectPathORAM(config, observer=observer)
        rng = make_rng(1)
        addresses = rng.integers(0, 256, size=600).tolist()
        for address in addresses:
            oram.read(int(address))
        report = analyze_path_obliviousness(
            addresses, observer.observed_paths, num_leaves=config.num_leaves
        )
        assert report.looks_oblivious

    def test_skewed_path_stream_is_flagged(self):
        # A degenerate "ORAM" that always touches path 0 must fail the test.
        observed = [0] * 500
        report = analyze_path_obliviousness(
            list(range(500)), observed, num_leaves=16
        )
        assert not report.looks_oblivious

    def test_leakage_report_handles_empty_observations(self):
        report = analyze_address_leakage([1, 2, 3], [])
        assert report.mutual_information_bits == 0.0
        assert report.top1_recovery_rate == 0.0


class TestCountDistinguisher:
    """Counting a request's path reads tells two chosen traces apart.

    The traces are equal in length: each request is 128 distinct ids, or
    one id 128 times.  Every leaf the bus shows is uniform either way; the
    count is not.  A PathORAM trace reads one path per access except on a
    stash hit, which a crowded tree (one-slot buckets) makes frequent for
    distinct ids and rare for a repeated one; a LAORAM bin reads one path
    per distinct missing path; a held step reads nothing for an id it
    already read.  The shipped engine's transcript is the reference
    engine's, bit for bit, so the advantage measured here is the protocol's.
    """

    NUM_BLOCKS = 256
    REQUEST = 128
    REQUESTS = 24

    def transcripts(self, label, recursive, verb, repeated):
        config = build_oram_config(
            num_blocks=self.NUM_BLOCKS, bucket_size=1, seed=5 + repeated,
            recursive_posmap=recursive, posmap_positions_per_block=4,
            posmap_cutoff_bytes=64,
        )
        counts = []
        for fast in (False, True):
            engine = build_engine(label, config, observer=MemoryBusObserver(), fast=fast)
            rng = np.random.default_rng(repeated)
            marks = [0]
            for _ in range(self.REQUESTS):
                if repeated:
                    ids = [int(rng.integers(self.NUM_BLOCKS))] * self.REQUEST
                else:
                    ids = rng.choice(self.NUM_BLOCKS, self.REQUEST, replace=False).tolist()
                if verb == "hold_many":
                    engine.hold_many(ids)
                    engine.commit(ids, [0.0] * len(ids))
                else:
                    getattr(engine, verb)(ids)
                marks.append(len(engine.observer.observed_paths))
            counts.append((
                reads_per_request(engine.observer, marks),
                engine.observer.observed_paths,
                engine.observer.observed_dummy_flags,
            ))
        assert counts[1] == counts[0]
        return counts[1][0]

    @pytest.mark.parametrize("verb", ["run_trace", "access_many", "hold_many"])
    @pytest.mark.parametrize("recursive", [False, True], ids=["dense", "recursive"])
    @pytest.mark.parametrize("label", ["PathORAM", "Fat/S4"])
    def test_distinct_ids_and_one_repeated_id_are_told_apart(self, label, recursive, verb):
        distinct = self.transcripts(label, recursive, verb, repeated=False)
        repeated = self.transcripts(label, recursive, verb, repeated=True)
        assert len(distinct) == len(repeated) == self.REQUESTS
        advantage = count_distinguisher(distinct, repeated)
        assert advantage.real >= 0.9
        # Nothing above drains the stash: the dummy reads tell nothing.
        assert advantage.dummy == 0.0

    def test_equal_counts_give_no_advantage(self):
        counts = [(3, 1), (4, 0), (3, 0)]
        assert count_distinguisher(counts, counts) == CountAdvantage(real=0.0, dummy=0.0)
        assert count_distinguisher([(1, 0)], [(2, 5)]).real == 1.0
        assert count_distinguisher([(1, 0)], [(2, 5)]).dummy == 1.0
        with pytest.raises(ConfigurationError):
            count_distinguisher([], counts)

    def test_reads_per_request_splits_real_from_dummy(self):
        observer = MemoryBusObserver()
        for leaf, dummy in [(1, False), (2, True), (3, False), (4, False), (5, True)]:
            observer.observe_path(leaf, dummy=dummy)
        assert reads_per_request(observer, [0, 2, 2, 5]) == [(1, 1), (0, 0), (2, 1)]
