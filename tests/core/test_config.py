"""Unit tests for HMJ configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.core.config import HMJConfig
from repro.core.flushing import AdaptiveFlushingPolicy, FlushSmallestPolicy


def test_defaults_follow_the_paper():
    cfg = HMJConfig(memory_capacity=1000)
    assert cfg.n_buckets == 200
    assert cfg.flush_fraction == 0.05
    assert isinstance(cfg.policy, AdaptiveFlushingPolicy)
    assert cfg.final_flush_all is True


def test_validation():
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=1)
    for n_buckets in (0, 2.5, float("nan")):
        with pytest.raises(ConfigurationError, match="n_buckets"):
            HMJConfig(memory_capacity=10, n_buckets=n_buckets)
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=10, flush_fraction=0.0)
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=10, flush_fraction=1.5)
    for fan_in in (1, 2.5, float("nan")):
        with pytest.raises(ConfigurationError):
            HMJConfig(memory_capacity=10, fan_in=fan_in)


def test_group_size_from_fraction():
    cfg = HMJConfig(memory_capacity=100, n_buckets=200, flush_fraction=0.05)
    assert cfg.group_size == 10
    assert cfg.n_groups == 20


def test_group_size_rounds_and_floors_at_one():
    cfg = HMJConfig(memory_capacity=100, n_buckets=100, flush_fraction=0.001)
    assert cfg.group_size == 1
    assert cfg.n_groups == 100


def test_flush_everything_is_one_group():
    cfg = HMJConfig(memory_capacity=100, n_buckets=64, flush_fraction=1.0)
    assert cfg.group_size == 64
    assert cfg.n_groups == 1


def test_uneven_grouping_ceils():
    cfg = HMJConfig(memory_capacity=100, n_buckets=10, flush_fraction=0.3)
    assert cfg.group_size == 3
    assert cfg.n_groups == 4


def test_custom_policy_is_kept():
    policy = FlushSmallestPolicy()
    cfg = HMJConfig(memory_capacity=100, policy=policy)
    assert cfg.policy is policy


def test_each_config_gets_fresh_default_policy():
    c1 = HMJConfig(memory_capacity=100)
    c2 = HMJConfig(memory_capacity=100)
    assert c1.policy is not c2.policy


def test_default_buckets_scale_with_memory():
    small = HMJConfig(memory_capacity=1000)
    big = HMJConfig(memory_capacity=100_000)
    assert small.n_buckets == 200            # floor for small memories
    assert big.n_buckets == 10_000           # ~10 tuples per bucket pair
    explicit = HMJConfig(memory_capacity=100_000, n_buckets=64)
    assert explicit.n_buckets == 64          # explicit values win


# -- skew-adaptivity knobs ----------------------------------------------------


def test_hot_split_defaults_off():
    cfg = HMJConfig(memory_capacity=100)
    assert cfg.hot_split_factor == 0
    assert not cfg.skew_adaptive


def test_hot_split_validation():
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=100, hot_split_factor=-1)
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=100, hot_split_factor=1)
    for threshold in (0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            HMJConfig(memory_capacity=100, hot_split_threshold=threshold)
    with pytest.raises(ConfigurationError):
        HMJConfig(memory_capacity=100, hot_split_min_tuples=-1)
    HMJConfig(memory_capacity=100, hot_split_factor=2)  # valid


def test_skew_adaptive_from_policy_or_splits():
    from repro.core.flushing import FlushColdestPolicy

    by_policy = HMJConfig(memory_capacity=100, policy=FlushColdestPolicy())
    by_split = HMJConfig(memory_capacity=100, hot_split_factor=4)
    assert by_policy.skew_adaptive
    assert by_split.skew_adaptive
