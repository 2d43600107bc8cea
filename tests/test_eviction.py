"""Tests for background eviction, configured by ``ORAMConfig``."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.oram import path_oram
from repro.oram.config import ORAMConfig
from repro.oram.path_oram import PathORAM


class TestThePolicyInTheKernel:
    """The request kernel runs an episode by the config's eviction fields.

    After every bin: an episode starts only above ``eviction_threshold``,
    drains to ``eviction_target`` unless ``MAX_DUMMY_READS_PER_EPISODE``
    reads ran first, and with ``background_eviction`` off none starts.
    One-slot buckets keep the stash busy; each single access is one bin.
    """

    @pytest.mark.parametrize(
        "policy, cap",
        [
            (dict(eviction_threshold=4, eviction_target=2), None),
            (dict(eviction_threshold=4, eviction_target=0), 2),
            (dict(eviction_threshold=3, eviction_target=3), None),
            (dict(background_eviction=False), None),
        ],
        ids=["drain", "capped", "no-drain", "disabled"],
    )
    def test_every_bin_follows_the_policy(self, policy, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(path_oram, "MAX_DUMMY_READS_PER_EPISODE", cap)
        cap = path_oram.MAX_DUMMY_READS_PER_EPISODE
        config = build_oram_config(num_blocks=64, bucket_size=1, seed=5).with_overrides(**policy)
        engine = PathORAM(config)
        episodes = drained = capped = 0
        for block_id in np.random.default_rng(2).integers(0, 64, size=300).tolist():
            before = engine.statistics
            engine.access(block_id)
            after = engine.statistics
            started = after.background_evictions - before.background_evictions
            dummies = after.dummy_reads - before.dummy_reads
            occupancy = len(engine.stash)
            if not started:
                assert dummies == 0
                assert occupancy <= config.eviction_threshold or not config.background_eviction
                continue
            assert config.background_eviction and started == 1
            episodes += 1
            if dummies == cap:
                capped += 1
            else:
                assert occupancy <= config.eviction_target
                drained += 1
            assert dummies <= cap
        assert episodes == (0 if not config.background_eviction else drained + capped)
        if config.background_eviction:
            assert episodes > 0
        if cap == 2:
            assert capped > 0


class TestTheEvictionFields:
    def test_defaults_match_section_viii(self):
        config = ORAMConfig(num_blocks=64)
        assert config.background_eviction
        assert (config.eviction_threshold, config.eviction_target) == (500, 50)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(eviction_threshold=10, eviction_target=20),
            dict(eviction_threshold=0, eviction_target=0),
            dict(eviction_target=-1),
        ],
    )
    def test_invalid_thresholds_are_rejected_by_the_config(self, fields):
        with pytest.raises(ConfigurationError):
            ORAMConfig(num_blocks=64, **fields)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(eviction_threshold=1, eviction_target=0),
            dict(eviction_threshold=7, eviction_target=7),
        ],
    )
    def test_the_boundary_thresholds_are_accepted(self, fields):
        config = ORAMConfig(num_blocks=64, **fields)
        assert (config.eviction_threshold, config.eviction_target) == (
            fields["eviction_threshold"],
            fields["eviction_target"],
        )
