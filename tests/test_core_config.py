"""Tests for LAORAMConfig."""

import pytest

from repro.core.config import LAORAMConfig
from repro.exceptions import ConfigurationError
from repro.oram.config import ORAMConfig


class TestLAORAMConfig:
    def test_describe_notation(self):
        oram = ORAMConfig(num_blocks=64)
        assert LAORAMConfig(oram=oram, superblock_size=2).describe() == "Normal/S2"
        fat = ORAMConfig(num_blocks=64, fat_tree=True)
        assert LAORAMConfig(oram=fat, superblock_size=8).describe() == "Fat/S8"

    def test_invalid_superblock_size(self):
        with pytest.raises(ConfigurationError):
            LAORAMConfig(oram=ORAMConfig(num_blocks=64), superblock_size=0)

    def test_lookahead_window_must_cover_a_superblock(self):
        with pytest.raises(ConfigurationError):
            LAORAMConfig(
                oram=ORAMConfig(num_blocks=64), superblock_size=8, lookahead_accesses=4
            )
