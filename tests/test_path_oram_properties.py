"""Property-based tests (hypothesis) for PathORAM invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig

from oracle import ObjectPathORAM

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def access_sequences(draw):
    """A small ORAM size together with a sequence of block accesses."""
    num_blocks = draw(st.integers(min_value=4, max_value=96))
    length = draw(st.integers(min_value=1, max_value=60))
    blocks = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_blocks - 1),
            min_size=length,
            max_size=length,
        )
    )
    return num_blocks, blocks


class TestPathORAMProperties:
    @_SETTINGS
    @given(access_sequences())
    def test_block_conservation_under_arbitrary_access_streams(self, case):
        num_blocks, accesses = case
        oram = ObjectPathORAM(ORAMConfig(num_blocks=num_blocks, block_size_bytes=16, seed=1))
        oram.access_many(accesses)
        assert oram.total_real_blocks() == num_blocks

    @_SETTINGS
    @given(access_sequences())
    def test_every_tree_block_lies_on_its_mapped_path(self, case):
        num_blocks, accesses = case
        oram = ObjectPathORAM(ORAMConfig(num_blocks=num_blocks, block_size_bytes=16, seed=2))
        oram.access_many(accesses)
        for block in oram.tree.iter_blocks():
            assert block.leaf == oram.position_map.peek(block.block_id)
            on_path = any(
                candidate.block_id == block.block_id
                for candidate in oram.tree.peek_path(block.leaf)
            )
            assert on_path

    @_SETTINGS
    @given(access_sequences(), st.binary(min_size=1, max_size=16))
    def test_last_write_wins(self, case, payload):
        num_blocks, accesses = case
        oram = ObjectPathORAM(ORAMConfig(num_blocks=num_blocks, block_size_bytes=16, seed=3))
        target = accesses[0]
        oram.access(target, AccessOp.WRITE, new_payload=payload)
        oram.access_many(accesses)
        assert oram.read(target) == payload

    @_SETTINGS
    @given(access_sequences())
    def test_path_writes_match_reads(self, case):
        """Every (real or dummy) path read is followed by exactly one write-back."""
        num_blocks, accesses = case
        oram = ObjectPathORAM(
            ORAMConfig(
                num_blocks=num_blocks, block_size_bytes=16, seed=4,
                eviction_threshold=16, eviction_target=4,
            ),
        )
        oram.access_many(accesses)
        snap = oram.statistics
        assert snap.path_writes == snap.path_reads + snap.dummy_reads

    @_SETTINGS
    @given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=1000))
    def test_new_paths_are_within_leaf_range(self, num_blocks, seed):
        oram = ObjectPathORAM(ORAMConfig(num_blocks=num_blocks, block_size_bytes=16, seed=seed))
        rng = np.random.default_rng(seed)
        for block in rng.integers(0, num_blocks, size=30):
            oram.read(int(block))
        leaves = oram.position_map.as_array()
        assert leaves.min() >= 0
        assert leaves.max() < oram.config.num_leaves
