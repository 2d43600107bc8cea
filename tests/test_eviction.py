"""Tests for the background-eviction policy."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import build_oram_config
from repro.oram.eviction import EvictionPolicy
from repro.oram.path_oram import PathORAM


class TestThePolicyInTheKernel:
    """The request kernel runs an episode by the policy's fields.

    After every bin: an episode starts only above ``trigger_threshold``,
    drains to ``drain_target`` unless ``max_dummy_reads_per_episode`` reads
    ran first, and a disabled policy never starts one.  One-slot buckets
    keep the stash busy; each single access is one bin.
    """

    @pytest.mark.parametrize(
        "policy",
        [
            EvictionPolicy(trigger_threshold=4, drain_target=2),
            EvictionPolicy(trigger_threshold=4, drain_target=0, max_dummy_reads_per_episode=2),
            EvictionPolicy(trigger_threshold=3, drain_target=3),
            EvictionPolicy.disabled(),
        ],
        ids=["drain", "capped", "no-drain", "disabled"],
    )
    def test_every_bin_follows_the_policy(self, policy):
        config = build_oram_config(num_blocks=64, bucket_size=1, seed=5)
        engine = PathORAM(config, eviction=policy)
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
                assert occupancy <= policy.trigger_threshold or not policy.enabled
                continue
            assert policy.enabled and started == 1
            episodes += 1
            if dummies == policy.max_dummy_reads_per_episode:
                capped += 1
            else:
                assert occupancy <= policy.drain_target
                drained += 1
            assert dummies <= policy.max_dummy_reads_per_episode
        assert episodes == (0 if not policy.enabled else drained + capped)
        if policy.enabled:
            assert episodes > 0
        if policy.max_dummy_reads_per_episode == 2:
            assert capped > 0


class TestEvictionPolicy:
    def test_paper_default_matches_section_viii(self):
        policy = EvictionPolicy.paper_default()
        assert policy.trigger_threshold == 500
        assert policy.drain_target == 50

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            EvictionPolicy(trigger_threshold=10, drain_target=20)
        with pytest.raises(ConfigurationError):
            EvictionPolicy(trigger_threshold=0)
        with pytest.raises(ConfigurationError):
            EvictionPolicy(max_dummy_reads_per_episode=0)
