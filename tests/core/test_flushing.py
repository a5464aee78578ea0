"""Unit tests for the flushing policies.

The central fixture is the worked example of the paper's Figure 7: a
memory of ~100 tuples in five bucket pairs (9,12), (11,13), (13,10),
(4,6), (25,2).  Section 4 walks the Adaptive policy through three
parameterisations of (a, b) and names the expected victim for each;
those walkthroughs are asserted verbatim here.
"""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.core.flushing import (
    AdaptiveFlushingPolicy,
    FlushAllPolicy,
    FlushLargestPolicy,
    FlushSmallestPolicy,
)
from repro.core.summary import BucketSummaryTable
from repro.storage.tuples import SOURCE_A, SOURCE_B


def figure7_summary() -> BucketSummaryTable:
    """The memory layout of the paper's Figure 7."""
    table = BucketSummaryTable(5)
    pairs = [(9, 12), (11, 13), (13, 10), (4, 6), (25, 2)]
    for group, (a, b) in enumerate(pairs):
        table.add(SOURCE_A, group, a)
        table.add(SOURCE_B, group, b)
    return table


def prepared_adaptive(a, b):
    policy = AdaptiveFlushingPolicy(a=a, b=b)
    policy.prepare(memory_capacity=100, n_groups=5)
    return policy


# -- the paper's three walkthroughs ------------------------------------------


def test_figure7_adaptive_balanced_picks_11_13():
    """b=25, a=10: memory is balanced; victim is the (11,13) pair."""
    policy = prepared_adaptive(a=10, b=25)
    assert policy.select_victims(figure7_summary()) == [1]


def test_figure7_adaptive_unbalanced_picks_13_10():
    """b=10, a=10: memory is unbalanced; victim is the (13,10) pair."""
    policy = prepared_adaptive(a=10, b=10)
    assert policy.select_victims(figure7_summary()) == [2]


def test_figure7_adaptive_tiny_a_picks_25_2():
    """b=10, a=1: the small-bucket guard is off; victim is (25,2)."""
    policy = prepared_adaptive(a=1, b=10)
    assert policy.select_victims(figure7_summary()) == [4]


def test_figure7_flush_smallest_picks_4_6():
    """Figure 7's Flush Smallest example: pair four, total 10."""
    assert FlushSmallestPolicy().select_victims(figure7_summary()) == [3]


def test_figure7_flush_largest_picks_25_2():
    """Figure 7's Flush Largest example: pair five, total 27."""
    assert FlushLargestPolicy().select_victims(figure7_summary()) == [4]


def test_figure7_flush_all_returns_every_pair():
    assert FlushAllPolicy().select_victims(figure7_summary()) == [0, 1, 2, 3, 4]


# -- the Section 6.1.2 equivalence -------------------------------------------


def test_flush_largest_breaks_ties_to_lowest_group():
    table = BucketSummaryTable(4)
    table.add(SOURCE_A, 3, 4)
    table.add(SOURCE_B, 1, 4)
    assert FlushLargestPolicy().select_victims(table) == [1]
    table.add(SOURCE_A, 0, 4)
    assert FlushLargestPolicy().select_victims(table) == [0]


def test_flush_largest_matches_scan_oracle_randomized():
    import random

    rng = random.Random(1234)
    table = BucketSummaryTable(8)
    for _ in range(2000):
        group = rng.randrange(8)
        source = SOURCE_A if rng.random() < 0.5 else SOURCE_B
        if rng.random() < 0.25 and table.size(source, group):
            table.remove(source, group, rng.randint(1, table.size(source, group)))
        else:
            table.add(source, group, rng.randint(1, 4))
        totals = [table.pair_total(g) for g in range(table.n_groups)]
        expected = totals.index(max(totals))
        assert FlushLargestPolicy().select_victims(table) == [expected]


def test_flush_largest_is_adaptive_with_a0_bM():
    """Flush Largest == Adaptive(a=0, b=M) on arbitrary layouts."""
    layouts = [
        [(9, 12), (11, 13), (13, 10), (4, 6), (25, 2)],
        [(1, 0), (0, 1), (50, 50)],
        [(3, 3)],
        [(10, 0), (0, 10), (5, 5), (9, 2)],
    ]
    for layout in layouts:
        table = BucketSummaryTable(len(layout))
        for g, (na, nb) in enumerate(layout):
            table.add(SOURCE_A, g, na)
            table.add(SOURCE_B, g, nb)
        adaptive = AdaptiveFlushingPolicy(a=0, b=table.total + 1)
        adaptive.prepare(memory_capacity=max(table.total, 1), n_groups=len(layout))
        assert adaptive.select_victims(table) == FlushLargestPolicy().select_victims(
            table
        ), layout


# -- auto thresholds and edge cases -------------------------------------------


def test_auto_thresholds_resolve_at_prepare():
    policy = AdaptiveFlushingPolicy()
    policy.prepare(memory_capacity=1000, n_groups=20)
    assert policy.a == pytest.approx(50.0)  # M / g
    assert policy.b == pytest.approx(200.0)  # M / 5


def test_explicit_thresholds_survive_prepare():
    policy = AdaptiveFlushingPolicy(a=3, b=7)
    policy.prepare(memory_capacity=1000, n_groups=20)
    assert policy.a == 3
    assert policy.b == 7


def test_unprepared_auto_policy_rejects_selection():
    policy = AdaptiveFlushingPolicy()
    with pytest.raises(ConfigurationError):
        policy.select_victims(figure7_summary())


def test_unprepared_auto_thresholds_inaccessible():
    policy = AdaptiveFlushingPolicy()
    with pytest.raises(ConfigurationError):
        _ = policy.a


def test_constructor_validation():
    for a in (-1, float("nan")):
        with pytest.raises(ConfigurationError):
            AdaptiveFlushingPolicy(a=a)
    for b in (0, float("nan")):
        with pytest.raises(ConfigurationError):
            AdaptiveFlushingPolicy(b=b)


def test_prepare_validation():
    policy = AdaptiveFlushingPolicy()
    with pytest.raises(ConfigurationError):
        policy.prepare(memory_capacity=0, n_groups=5)
    with pytest.raises(ConfigurationError):
        policy.prepare(memory_capacity=10, n_groups=0)


def test_all_policies_reject_empty_memory():
    table = BucketSummaryTable(3)
    for policy in [
        FlushAllPolicy(),
        FlushSmallestPolicy(),
        FlushLargestPolicy(),
        prepared_adaptive(a=1, b=10),
    ]:
        with pytest.raises(StorageError):
            policy.select_victims(table)


def test_smallest_skips_empty_groups():
    table = BucketSummaryTable(3)
    table.add(SOURCE_A, 1, 5)
    table.add(SOURCE_A, 2, 2)
    assert FlushSmallestPolicy().select_victims(table) == [2]


def test_adaptive_unbalanced_b_side_heavy():
    # |B| >> |A|: only pairs with |B_k| >= |A_k| are candidates.
    table = BucketSummaryTable(3)
    table.add(SOURCE_A, 0, 10)  # A-heavy pair
    table.add(SOURCE_B, 0, 1)
    table.add(SOURCE_B, 1, 30)  # B-heavy pair
    table.add(SOURCE_A, 1, 2)
    table.add(SOURCE_B, 2, 8)
    policy = prepared_adaptive(a=1, b=5)
    assert policy.select_victims(table) == [1]


def test_adaptive_balanced_falls_back_when_no_pair_meets_a():
    # All buckets below a: the size filter must not empty the search
    # space ("If there is no bucket pair that satisfies the smallest
    # bucket size threshold, the search is kept to the whole set").
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 2)
    table.add(SOURCE_B, 0, 2)
    table.add(SOURCE_A, 1, 1)
    table.add(SOURCE_B, 1, 1)
    policy = prepared_adaptive(a=100, b=50)
    assert policy.select_victims(table) == [0]


def test_adaptive_balance_keeping_filter_prefers_neutral_pairs():
    # Memory balanced (|A|=32, |B|=28, diff 4 < b=5).  Flushing the
    # skewed pairs (20,3) or (2,15) would leave a difference of 17 or
    # 13 — unbalanced — so despite their larger/similar totals the
    # neutral (10,10) pair must be chosen.
    table = BucketSummaryTable(3)
    table.add(SOURCE_A, 0, 10)
    table.add(SOURCE_B, 0, 10)
    table.add(SOURCE_A, 1, 20)
    table.add(SOURCE_B, 1, 3)
    table.add(SOURCE_A, 2, 2)
    table.add(SOURCE_B, 2, 15)
    policy = prepared_adaptive(a=1, b=5)
    assert policy.select_victims(table) == [0]


def test_adaptive_balance_keeping_filter_can_be_vacuous():
    # Every candidate would unbalance the memory: the filter must not
    # empty the search space; the largest pair wins by default.
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 20)
    table.add(SOURCE_B, 0, 3)
    table.add(SOURCE_A, 1, 2)
    table.add(SOURCE_B, 1, 15)
    # |A|=22, |B|=18, diff 4 < b=5: balanced; removing either pair
    # leaves a diff of 17 or 13, so no pair keeps the balance.
    policy = prepared_adaptive(a=1, b=5)
    assert policy.select_victims(table) == [0]


def test_adaptive_ties_break_to_lowest_group():
    table = BucketSummaryTable(3)
    for g in range(3):
        table.add(SOURCE_A, g, 5)
        table.add(SOURCE_B, g, 5)
    policy = prepared_adaptive(a=1, b=100)
    assert policy.select_victims(table) == [0]


def test_policy_names():
    assert FlushAllPolicy().name == "flush-all"
    assert FlushSmallestPolicy().name == "flush-smallest"
    assert FlushLargestPolicy().name == "flush-largest"
    assert AdaptiveFlushingPolicy().name == "adaptive"


# -- the skew-adaptive flush-coldest policy -----------------------------------


def heated_summary(pairs, heats):
    table = BucketSummaryTable(len(pairs))
    table.enable_heat()
    for group, (a, b) in enumerate(pairs):
        table.add(SOURCE_A, group, a)
        table.add(SOURCE_B, group, b)
    # Overwrite the arrival-derived heat with the scenario's profile:
    # decay to zero, then re-add pure heat via zero-size... not
    # possible through the public API, so shape it with decays/adds.
    table.decay_heat(0.0)
    for group, heat in enumerate(heats):
        for _ in range(int(heat)):
            table.add(SOURCE_A, group, 1)
            table.remove(SOURCE_A, group, 1)
    return table


def test_flush_coldest_requires_heat():
    from repro.core.flushing import FlushColdestPolicy

    table = BucketSummaryTable(3)
    table.add(SOURCE_A, 0, 1)
    policy = FlushColdestPolicy()
    policy.prepare(memory_capacity=100, n_groups=3)
    with pytest.raises(ConfigurationError, match="heat"):
        policy.select_victims(table)


def test_flush_coldest_validation():
    from repro.core.flushing import FlushColdestPolicy

    with pytest.raises(ConfigurationError):
        FlushColdestPolicy(decay=1.5)
    for hot_ratio in (0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            FlushColdestPolicy(hot_ratio=hot_ratio)
    with pytest.raises(ConfigurationError):
        FlushColdestPolicy(cold_fraction=0.0)
    with pytest.raises(ConfigurationError):
        FlushColdestPolicy(cold_fraction=1.1)


def test_flush_coldest_protects_the_hot_group():
    from repro.core.flushing import FlushColdestPolicy

    # Group 0 is blazing hot and the largest; without heat the paper's
    # policies would flush it.  Flush-coldest must pick the largest
    # pair among the *coldest* quarter instead.
    table = heated_summary(
        pairs=[(40, 40), (10, 9), (8, 8), (6, 5)],
        heats=[100, 2, 1, 1],
    )
    policy = FlushColdestPolicy(cold_fraction=0.5)
    policy.prepare(memory_capacity=100, n_groups=4)
    victims = policy.select_victims(table)
    assert victims == [2]  # largest pair among the two coldest groups
    # The decision aged the heat.
    assert table.heat(0) == pytest.approx(50.0)


def test_flush_coldest_flat_profile_delegates_to_fallback():
    from repro.core.flushing import FlushColdestPolicy

    table = heated_summary(
        pairs=[(9, 12), (11, 13), (13, 10), (4, 6), (25, 2)],
        heats=[3, 3, 3, 3, 3],
    )
    policy = FlushColdestPolicy(fallback=AdaptiveFlushingPolicy(a=10, b=25))
    policy.prepare(memory_capacity=100, n_groups=5)
    # Identical to the baseline walkthrough: balanced memory picks the
    # (11,13) pair (Figure 7, b=25 parameterisation).
    assert policy.select_victims(table) == [1]


def test_flush_coldest_no_heat_at_all_delegates():
    from repro.core.flushing import FlushColdestPolicy

    table = heated_summary(pairs=[(9, 12), (11, 13)], heats=[0, 0])
    policy = FlushColdestPolicy(fallback=FlushLargestPolicy())
    policy.prepare(memory_capacity=100, n_groups=2)
    assert policy.select_victims(table) == [1]


def test_flush_coldest_requires_nonempty_groups():
    from repro.core.flushing import FlushColdestPolicy

    table = BucketSummaryTable(2)
    table.enable_heat()
    policy = FlushColdestPolicy()
    policy.prepare(memory_capacity=100, n_groups=2)
    with pytest.raises(StorageError):
        policy.select_victims(table)


def test_flush_coldest_repr_and_requires_heat_flag():
    from repro.core.flushing import FlushColdestPolicy

    policy = FlushColdestPolicy()
    assert policy.requires_heat
    assert not AdaptiveFlushingPolicy().requires_heat
    assert "flush-coldest" == policy.name
    assert "fallback" in repr(policy)
