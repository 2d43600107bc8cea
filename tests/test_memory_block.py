"""Tests for the Block dataclass."""

import pytest

from oracle import Block



class TestBlock:
    def test_valid_block(self):
        block = Block(block_id=5, leaf=3)
        assert block.payload is None

    def test_invalid_block_id_rejected(self):
        with pytest.raises(ValueError):
            Block(block_id=-1, leaf=0)
        with pytest.raises(ValueError):
            Block(block_id=-5, leaf=0)

    def test_invalid_leaf_rejected(self):
        with pytest.raises(ValueError):
            Block(block_id=0, leaf=-1)
