"""Property-based tests (hypothesis) for LAORAM invariants and security."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import LAORAMConfig
from repro.core.laoram import LAORAMClient
from repro.core.preprocessor import Preprocessor
from repro.oram.config import ORAMConfig

from test_laoram import assert_plan_conformance, assert_twins_agree

from oracle import ObjectLAORAMClient

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traces(draw):
    """A small table size, superblock size, fat-tree flag and access stream."""
    num_blocks = draw(st.integers(min_value=8, max_value=128))
    superblock = draw(st.sampled_from([1, 2, 4, 8]))
    fat = draw(st.booleans())
    length = draw(st.integers(min_value=1, max_value=80))
    addresses = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_blocks - 1),
            min_size=length,
            max_size=length,
        )
    )
    return num_blocks, superblock, fat, addresses


def build_client(num_blocks, superblock, fat, seed=0, client=ObjectLAORAMClient):
    config = LAORAMConfig(
        oram=ORAMConfig(
            num_blocks=num_blocks, block_size_bytes=16, fat_tree=fat, seed=seed
        ),
        superblock_size=superblock,
    )
    return client(config)


class TestLAORAMProperties:
    @_SETTINGS
    @given(traces(), st.integers(min_value=0, max_value=3))
    def test_placement_conforms_to_the_plan_on_both_clients(self, case, seed):
        num_blocks, superblock, fat, addresses = case
        trace = np.asarray(addresses)
        twins = [
            build_client(num_blocks, superblock, fat, seed, client)
            for client in (ObjectLAORAMClient, LAORAMClient)
        ]
        for engine in twins:
            # Twice before any access: the second plan finds the blocks
            # where the first one left them, overflow in the stash included.
            for window in (trace, trace[: len(trace) // 2 + 1]):
                plan = engine.preprocess(window)
                engine.apply_initial_placement(plan)
                assert_plan_conformance(engine, plan)
        assert_twins_agree(*twins)

    @_SETTINGS
    @given(traces())
    def test_block_conservation(self, case):
        num_blocks, superblock, fat, addresses = case
        client = build_client(num_blocks, superblock, fat)
        client.run_trace(np.asarray(addresses))
        assert client.total_real_blocks() == num_blocks

    @_SETTINGS
    @given(traces())
    def test_every_access_is_counted(self, case):
        num_blocks, superblock, fat, addresses = case
        client = build_client(num_blocks, superblock, fat, seed=1)
        client.run_trace(np.asarray(addresses))
        assert client.statistics.logical_accesses == len(addresses)

    @_SETTINGS
    @given(traces())
    def test_tree_blocks_lie_on_their_mapped_paths(self, case):
        num_blocks, superblock, fat, addresses = case
        client = build_client(num_blocks, superblock, fat, seed=2)
        client.run_trace(np.asarray(addresses))
        for block in client.tree.iter_blocks():
            assert block.leaf == client.position_map.peek(block.block_id)

    @_SETTINGS
    @given(traces())
    def test_laoram_never_reads_more_paths_than_pathoram_would(self, case):
        num_blocks, superblock, fat, addresses = case
        client = build_client(num_blocks, superblock, fat, seed=3)
        client.run_trace(np.asarray(addresses))
        stats = client.statistics
        # PathORAM reads exactly one path per access (plus dummies); LAORAM's
        # real path reads can never exceed the number of accesses.
        assert stats.path_reads <= stats.logical_accesses

    @_SETTINGS
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_plan_leaves_are_uniformly_distributed(self, superblock, seed):
        """Security property: superblock paths are uniform over the leaves."""
        pre = Preprocessor(superblock_size=superblock, num_leaves=64, seed=seed)
        plan = pre.build_plan(np.arange(512))
        leaves = plan.bin_leaves
        assert leaves.min() >= 0
        assert leaves.max() < 64
        # Coarse uniformity: both halves of the leaf range get used.
        assert (leaves < 32).any()
        assert (leaves >= 32).any()
