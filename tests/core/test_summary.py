"""Unit tests for the bucket summary table."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryBudgetError
from repro.core.summary import BucketSummaryTable
from repro.storage.tuples import SOURCE_A, SOURCE_B


def test_initially_empty():
    table = BucketSummaryTable(3)
    assert table.total == 0
    assert table.total_a == 0
    assert table.total_b == 0
    assert table.nonempty_groups() == []


def test_n_groups_validation():
    with pytest.raises(ConfigurationError):
        BucketSummaryTable(0)


def test_add_updates_counts_and_totals():
    table = BucketSummaryTable(3)
    table.add(SOURCE_A, 1, 5)
    table.add(SOURCE_B, 1, 3)
    assert table.pair_sizes(1) == (5, 3)
    assert table.pair_total(1) == 8
    assert table.total == 8
    assert table.total_a == 5
    assert table.total_b == 3


def test_remove_updates_counts():
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 5)
    table.remove(SOURCE_A, 0, 2)
    assert table.size(SOURCE_A, 0) == 3
    assert table.total_a == 3


def test_remove_more_than_held_raises():
    table = BucketSummaryTable(2)
    table.add(SOURCE_B, 0, 1)
    with pytest.raises(MemoryBudgetError):
        table.remove(SOURCE_B, 0, 2)


def test_imbalance_is_absolute_difference():
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 10)
    table.add(SOURCE_B, 1, 4)
    assert table.imbalance() == 6
    table.add(SOURCE_B, 0, 10)
    assert table.imbalance() == 4


def test_nonempty_groups():
    table = BucketSummaryTable(4)
    table.add(SOURCE_A, 0, 1)
    table.add(SOURCE_B, 2, 1)
    assert table.nonempty_groups() == [0, 2]


def test_rows_layout():
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 9)
    table.add(SOURCE_B, 0, 12)
    assert table.rows() == [(0, 9, 12), (1, 0, 0)]


def test_group_bounds_checked():
    table = BucketSummaryTable(2)
    with pytest.raises(ConfigurationError):
        table.add(SOURCE_A, 2, 1)
    with pytest.raises(ConfigurationError):
        table.size(SOURCE_A, -1)


def test_unknown_source_rejected():
    table = BucketSummaryTable(2)
    with pytest.raises(ConfigurationError):
        table.add("C", 0, 1)


def test_negative_counts_rejected():
    table = BucketSummaryTable(2)
    with pytest.raises(ConfigurationError):
        table.add(SOURCE_A, 0, -1)
    with pytest.raises(ConfigurationError):
        table.remove(SOURCE_A, 0, -1)


def test_repr_shows_totals():
    table = BucketSummaryTable(2)
    table.add(SOURCE_A, 0, 3)
    assert "|A|=3" in repr(table)


def test_add_one_is_add_fast_path():
    checked = BucketSummaryTable(4)
    fast = BucketSummaryTable(4)
    import random

    rng = random.Random(99)
    for _ in range(500):
        group = rng.randrange(4)
        is_a = rng.random() < 0.5
        checked.add(SOURCE_A if is_a else SOURCE_B, group, 1)
        fast.add_one(is_a, group)
    assert fast.rows() == checked.rows()
    assert fast.total_a == checked.total_a
    assert fast.total_b == checked.total_b


# -- per-group arrival heat ---------------------------------------------------


def test_heat_disabled_by_default():
    table = BucketSummaryTable(3)
    assert not table.heat_enabled
    table.add(SOURCE_A, 0, 5)
    assert table.heat(0) == 0.0
    assert table.heats() == []
    table.decay_heat(0.5)  # harmless no-op when disabled


def test_heat_tracks_arrivals_per_group():
    table = BucketSummaryTable(3)
    table.enable_heat()
    table.enable_heat()  # idempotent
    table.add(SOURCE_A, 0, 5)
    table.add(SOURCE_B, 0, 2)
    table.add(SOURCE_A, 2, 1)
    assert table.heats() == [7.0, 0.0, 1.0]


def test_heat_counts_every_ingest_path_identically():
    bulk = BucketSummaryTable(4)
    single = BucketSummaryTable(4)
    arrays = BucketSummaryTable(4)
    for t in (bulk, single, arrays):
        t.enable_heat()
    bulk.add(SOURCE_A, 1, 3)
    bulk.add(SOURCE_B, 2, 2)
    for _ in range(3):
        single.add_one(True, 1)
    for _ in range(2):
        single.add_one(False, 2)
    arrays.add_delta_arrays(
        np.array([0, 3, 0, 0]), np.array([0, 0, 2, 0])
    )
    assert bulk.heats() == single.heats() == arrays.heats()


def test_decay_ages_heat_multiplicatively():
    table = BucketSummaryTable(2)
    table.enable_heat()
    table.add(SOURCE_A, 0, 8)
    table.add(SOURCE_A, 1, 2)
    table.decay_heat(0.5)
    assert table.heats() == [4.0, 1.0]
    table.decay_heat(0.0)
    assert table.heats() == [0.0, 0.0]


def test_decay_factor_validation():
    table = BucketSummaryTable(2)
    table.enable_heat()
    with pytest.raises(ConfigurationError):
        table.decay_heat(1.5)
    with pytest.raises(ConfigurationError):
        table.decay_heat(-0.1)


def test_removal_does_not_touch_heat():
    # Heat measures arrival recency, not residency: flushing (removal)
    # must leave it alone so a just-flushed hot group stays protected.
    table = BucketSummaryTable(2)
    table.enable_heat()
    table.add(SOURCE_A, 0, 6)
    table.remove(SOURCE_A, 0, 6)
    assert table.heat(0) == 6.0
