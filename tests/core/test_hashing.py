"""Unit tests for the dual hash table."""

import pytest

from repro.errors import ConfigurationError
from repro.core.hashing import DualHashTable
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple


def t(key, tid=0, source=SOURCE_A):
    return Tuple(key=key, tid=tid, source=source)


def test_validation():
    with pytest.raises(ConfigurationError):
        DualHashTable(0, 1)
    with pytest.raises(ConfigurationError):
        DualHashTable(4, 0)
    with pytest.raises(ConfigurationError):
        DualHashTable(4, 5)


def test_bucket_of_is_deterministic_and_in_range():
    table = DualHashTable(16, 4)
    for key in range(1000):
        bucket = table.bucket_of(key)
        assert 0 <= bucket < 16
        assert table.bucket_of(key) == bucket


def test_bucket_of_spreads_consecutive_keys():
    table = DualHashTable(64, 8)
    buckets = {table.bucket_of(k) for k in range(64)}
    assert len(buckets) > 32  # multiplicative hashing, not identity


def test_group_mapping_consecutive_blocks():
    table = DualHashTable(10, 5)
    assert [table.group_of_bucket(b) for b in range(10)] == [
        0, 0, 1, 1, 2, 2, 3, 3, 4, 4,
    ]


def test_group_mapping_remainder_joins_last_group():
    table = DualHashTable(10, 3)  # group size 3: groups {0,1,2},{3,4,5},{6..9}
    assert table.group_of_bucket(9) == 2
    assert list(table.buckets_in_group(2)) == [6, 7, 8, 9]


def test_single_group_covers_everything():
    table = DualHashTable(8, 1)
    assert all(table.group_of_bucket(b) == 0 for b in range(8))
    assert list(table.buckets_in_group(0)) == list(range(8))


def test_bounds_checks():
    table = DualHashTable(8, 2)
    with pytest.raises(ConfigurationError):
        table.group_of_bucket(8)
    with pytest.raises(ConfigurationError):
        table.buckets_in_group(2)


@pytest.mark.parametrize("bucket", [-3, 4, 9, "extension"])
def test_bucket_accessors_validate_index(bucket):
    table = DualHashTable(4, 2)
    key = next(k for k in range(100) if table.bucket_of(k) == 1)
    table.insert(Tuple(key=key, tid=0, source=SOURCE_A))
    if bucket == "extension":
        # Splitting group 0 (buckets 0-1) appends extension buckets 4-7,
        # and the tuple moves to one of them: in range, and populated.
        table.subsplit_group(0, 2)
        ext = table.bucket_of(key)
        assert 4 <= ext < 8
        assert table.bucket_size(SOURCE_A, ext) == 1
        assert [t.key for t in table.bucket_contents(SOURCE_A, ext)] == [key]
        assert table.bucket_size(SOURCE_A, 1) == 0
        return
    # -3 used to alias bucket 1 and 9 raised a bare IndexError.
    with pytest.raises(ConfigurationError):
        table.bucket_size(SOURCE_A, bucket)
    with pytest.raises(ConfigurationError):
        table.bucket_contents(SOURCE_A, bucket)


def test_insert_updates_summary_at_group_granularity():
    table = DualHashTable(8, 2)
    tup = t(key=3)
    bucket = table.insert(tup)
    group = table.group_of_bucket(bucket)
    assert table.summary.size(SOURCE_A, group) == 1
    assert table.total_tuples() == 1


def test_probe_matches_only_equal_keys_in_opposite_source():
    table = DualHashTable(1, 1)  # everything in one bucket
    table.insert(t(key=5, tid=0, source=SOURCE_B))
    table.insert(t(key=6, tid=1, source=SOURCE_B))
    table.insert(t(key=5, tid=2, source=SOURCE_A))
    matches, candidates = table.probe(t(key=5, tid=9, source=SOURCE_A))
    assert [m.tid for m in matches] == [0]
    assert candidates == 2  # whole opposite bucket scanned


def test_probe_does_not_match_own_source():
    table = DualHashTable(4, 2)
    table.insert(t(key=5, tid=0, source=SOURCE_A))
    matches, _ = table.probe(t(key=5, tid=1, source=SOURCE_A))
    assert matches == []


def test_extract_group_removes_and_returns_everything():
    table = DualHashTable(4, 2)
    inserted = [t(key=k, tid=k) for k in range(20)]
    for tup in inserted:
        table.insert(tup)
    got = table.extract_group(SOURCE_A, 0) + table.extract_group(SOURCE_A, 1)
    assert sorted(x.tid for x in got) == list(range(20))
    assert table.total_tuples() == 0
    assert table.summary.total_a == 0


def test_extract_empty_group_returns_empty():
    table = DualHashTable(4, 2)
    assert table.extract_group(SOURCE_B, 1) == []


def test_extract_validates_source():
    table = DualHashTable(4, 2)
    with pytest.raises(ConfigurationError):
        table.extract_group("C", 0)


def test_bucket_contents_returns_copy():
    table = DualHashTable(1, 1)
    table.insert(t(key=1))
    contents = table.bucket_contents(SOURCE_A, 0)
    contents.clear()
    assert table.bucket_size(SOURCE_A, 0) == 1


def test_largest_bucket_prefers_biggest():
    table = DualHashTable(4, 4)
    for tid in range(3):
        table.insert(t(key=7, tid=tid, source=SOURCE_B))
    table.insert(t(key=7, tid=9, source=SOURCE_A))
    source, bucket = table.largest_bucket()
    assert source == SOURCE_B
    assert bucket == table.bucket_of(7)


def test_largest_bucket_tie_breaks_to_a_then_low_index():
    table = DualHashTable(4, 4)
    assert table.largest_bucket() == (SOURCE_A, 0)


def test_repr_counts_tuples():
    table = DualHashTable(4, 2)
    table.insert(t(key=1))
    assert "held=1" in repr(table)


def test_probe_insert_matches_probe_then_insert():
    import random

    rng = random.Random(7)
    fused = DualHashTable(16, 4)
    naive = DualHashTable(16, 4)
    for i in range(600):
        source = SOURCE_A if rng.random() < 0.5 else SOURCE_B
        tup = t(rng.randrange(40), tid=i, source=source)
        expected_matches, expected_candidates = naive.probe(tup)
        naive.insert(tup)
        matches, candidates, bucket = fused.probe_insert(tup)
        assert list(matches) == expected_matches
        assert candidates == expected_candidates
        assert bucket == fused.bucket_of(tup.key)
    assert fused.summary.rows() == naive.summary.rows()


def test_probe_insert_empty_bucket_returns_shared_empty():
    table = DualHashTable(8, 2)
    matches, candidates, _ = table.probe_insert(t(5))
    assert matches == ()
    assert candidates == 0
