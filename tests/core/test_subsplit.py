"""Unit tests for hot-group sub-splitting in the dual hash table.

The contract under test: a sub-split is invisible to everything except
the candidate scan.  Probe matches (content *and* order), summary rows,
group membership, and extraction all behave exactly as the unsplit
table — the oracle in these tests is literally a second, never-split
``DualHashTable`` fed the same tuples.
"""

import random

import numpy as np
import pytest

from repro.core.hashing import DualHashTable
from repro.errors import ConfigurationError
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple


def t(key, tid=0, source=SOURCE_A):
    return Tuple(key=key, tid=tid, source=source)


def fill(table, n=300, key_range=40, seed=3, start_tid=0):
    rng = random.Random(seed)
    for i in range(n):
        source = SOURCE_A if rng.random() < 0.5 else SOURCE_B
        table.insert(t(rng.randrange(key_range), tid=start_tid + i, source=source))


def test_subsplit_validation():
    table = DualHashTable(8, 4)
    with pytest.raises(ConfigurationError):
        table.subsplit_group(0, 1)
    with pytest.raises(ConfigurationError):
        table.subsplit_group(-1, 2)
    with pytest.raises(ConfigurationError):
        table.subsplit_group(4, 2)
    table.subsplit_group(0, 2)
    with pytest.raises(ConfigurationError):
        table.subsplit_group(0, 2)  # already split
    with pytest.raises(ConfigurationError):
        table.is_split(9)
    with pytest.raises(ConfigurationError):
        table.split_factor(9)


def test_subsplit_bookkeeping():
    table = DualHashTable(8, 4)
    assert table.split_epoch == 0
    assert table.split_groups() == []
    assert table.split_factor(2) == 1
    moved_out = table.subsplit_group(2, 4)
    assert moved_out == 0  # empty group: nothing to scatter
    assert table.split_epoch == 1
    assert table.is_split(2)
    assert table.split_factor(2) == 4
    assert table.split_groups() == [2]


def test_split_probe_insert_matches_unsplit_oracle():
    rng = random.Random(11)
    split = DualHashTable(16, 4)
    oracle = DualHashTable(16, 4)
    fill(split, seed=5)
    fill(oracle, seed=5)
    split.subsplit_group(1, 4)
    split.subsplit_group(3, 2)
    for i in range(400):
        source = SOURCE_A if rng.random() < 0.5 else SOURCE_B
        tup = t(rng.randrange(40), tid=1000 + i, source=source)
        matches, candidates, _ = split.probe_insert(tup)
        expected, oracle_candidates, _ = oracle.probe_insert(tup)
        # Same matches in the same order; fewer-or-equal candidates
        # scanned (shrinking the scan is the point of the split).
        assert list(matches) == list(expected)
        assert candidates <= oracle_candidates
    assert split.summary.rows() == oracle.summary.rows()


def test_split_batch_hash_matches_scalar():
    table = DualHashTable(16, 4)
    fill(table)
    table.subsplit_group(0, 4)
    table.subsplit_group(2, 3)
    keys = np.arange(500, dtype=np.int64)
    batch = table.hash_batch(keys)
    scalar = np.array([table.bucket_of(int(k)) for k in keys])
    np.testing.assert_array_equal(batch, scalar)
    # Every bucket still belongs to the right group.
    for k, b in zip(keys, batch):
        assert table.group_of_bucket(int(b)) == table.group_of_key(int(k))


def test_extract_group_unchanged_by_split():
    table = DualHashTable(16, 4)
    oracle = DualHashTable(16, 4)
    fill(table, seed=13)
    fill(oracle, seed=13)
    table.subsplit_group(2, 4)
    for source in (SOURCE_A, SOURCE_B):
        assert sorted(
            x.identity() for x in table.extract_group(source, 2)
        ) == sorted(x.identity() for x in oracle.extract_group(source, 2))


def test_buckets_in_group_includes_extensions():
    table = DualHashTable(8, 4)
    base = list(table.buckets_in_group(1))
    assert base == [2, 3]
    table.subsplit_group(1, 3)
    buckets = list(table.buckets_in_group(1))
    assert buckets[:2] == base
    assert len(buckets) == 2 + 2 * 3  # base buckets + factor extensions each
    assert all(table.group_of_bucket(b) == 1 for b in buckets)


def test_equal_keys_share_a_sub_bucket_in_order():
    table = DualHashTable(8, 2)
    for tid in range(6):
        table.insert(t(key=5, tid=tid, source=SOURCE_A))
    table.subsplit_group(table.group_of_key(5), 4)
    bucket = table.bucket_of(5)
    contents = table.bucket_contents(SOURCE_A, bucket)
    assert [x.tid for x in contents] == [0, 1, 2, 3, 4, 5]


def test_payloads_survive_split():
    table = DualHashTable(8, 2)
    table.insert(Tuple(key=3, tid=0, source=SOURCE_A, payload="p0"))
    table.insert(Tuple(key=3, tid=1, source=SOURCE_B, payload="p1"))
    table.subsplit_group(table.group_of_key(3), 2)
    matches, _, _ = table.probe_insert(t(key=3, tid=2, source=SOURCE_A))
    assert [m.payload for m in matches] == ["p1"]
    assert [x.payload for x in table.bucket_contents(SOURCE_A, table.bucket_of(3))] == [
        "p0",
        None,  # the probe_insert above stored tid=2 without payload
    ]


def test_epoch_signals_batch_driver_rehash():
    table = DualHashTable(16, 4)
    fill(table)
    keys = np.arange(100, dtype=np.int64)
    before = table.hash_batch(keys)
    epoch = table.split_epoch
    table.subsplit_group(0, 4)
    assert table.split_epoch != epoch
    after = table.hash_batch(keys)
    assert not np.array_equal(before, after)  # stale buckets really differ
