"""Security-analysis tests: the observable path stream must stay uniform.

Section VI of the paper proves that superblock path reassignment preserves
PathORAM's obliviousness because every new path is drawn uniformly and
independently of the data.  These tests check the empirical counterpart on
the simulator: the sequence of leaf labels an adversary observes passes a
chi-square uniformity test and is (nearly) independent of the true accesses,
for PathORAM and for LAORAM in both tree organisations.
"""

import numpy as np
import pytest

from repro.attacks.analysis import analyze_path_obliviousness
from repro.attacks.observer import MemoryBusObserver
from repro.core.config import LAORAMConfig
from repro.datasets.kaggle import SyntheticKaggleTrace
from repro.datasets.permutation import PermutationTraceGenerator
from repro.oram.config import ORAMConfig
from repro.utils.stats import chi_square_uniformity

from oracle import ObjectLAORAMClient, ObjectPathORAM

NUM_BLOCKS = 256
NUM_ACCESSES = 2048


def observed_paths_for(engine_builder, trace):
    observer = MemoryBusObserver()
    engine = engine_builder(observer)
    if isinstance(engine, ObjectLAORAMClient):
        engine.run_trace(trace.addresses)
    else:
        engine.access_many(trace.addresses)
    return observer.observed_paths


@pytest.fixture(scope="module")
def kaggle_trace():
    return SyntheticKaggleTrace(num_blocks=NUM_BLOCKS, hot_band_size=16, seed=3).generate(
        NUM_ACCESSES
    )


@pytest.fixture(scope="module")
def permutation_trace_module():
    return PermutationTraceGenerator(NUM_BLOCKS, seed=4).generate(NUM_ACCESSES)


class TestPathUniformity:
    def test_pathoram_paths_are_uniform(self, kaggle_trace):
        config = ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=64, seed=0)
        paths = observed_paths_for(lambda obs: ObjectPathORAM(config, observer=obs), kaggle_trace)
        result = chi_square_uniformity(paths, config.num_leaves)
        assert not result.rejects_uniformity(alpha=0.001)

    @pytest.mark.parametrize("fat", [False, True], ids=["normal", "fat"])
    @pytest.mark.parametrize("superblock", [2, 4, 8])
    def test_laoram_paths_are_uniform(self, kaggle_trace, superblock, fat):
        config = LAORAMConfig(
            oram=ORAMConfig(
                num_blocks=NUM_BLOCKS, block_size_bytes=64, fat_tree=fat, seed=superblock
            ),
            superblock_size=superblock,
        )
        paths = observed_paths_for(
            lambda obs: ObjectLAORAMClient(config, observer=obs), kaggle_trace
        )
        result = chi_square_uniformity(paths, config.oram.num_leaves)
        assert not result.rejects_uniformity(alpha=0.001)

    def test_laoram_paths_are_uniform_on_permutation(self, permutation_trace_module):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=64, seed=9),
            superblock_size=4,
        )
        paths = observed_paths_for(
            lambda obs: ObjectLAORAMClient(config, observer=obs), permutation_trace_module
        )
        result = chi_square_uniformity(paths, config.oram.num_leaves)
        assert not result.rejects_uniformity(alpha=0.001)


class TestIndependenceFromAccessStream:
    def test_laoram_observations_carry_no_usable_information(self, kaggle_trace):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=64, seed=10),
            superblock_size=4,
        )
        observer = MemoryBusObserver()
        client = ObjectLAORAMClient(config, observer=observer)
        client.run_trace(kaggle_trace.addresses)
        report = analyze_path_obliviousness(
            kaggle_trace.addresses.tolist(),
            observer.observed_paths,
            num_leaves=config.oram.num_leaves,
        )
        assert report.looks_oblivious

    def test_repeated_access_to_same_block_uses_fresh_paths(self):
        """Re-accessing one block must not reveal the repetition via its path."""
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=NUM_BLOCKS, block_size_bytes=64, seed=11),
            superblock_size=2,
        )
        observer = MemoryBusObserver()
        client = ObjectLAORAMClient(config, observer=observer)
        repeated = np.zeros(512, dtype=np.int64)  # always block 0
        client.run_trace(repeated)
        paths = observer.observed_paths
        # The same block is fetched many times; the observed leaves must not
        # repeat systematically (uniformity over leaves).
        result = chi_square_uniformity(paths, config.oram.num_leaves)
        assert not result.rejects_uniformity(alpha=0.001)
