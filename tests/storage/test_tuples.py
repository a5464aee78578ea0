"""Unit tests for tuples, relations, and join results."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, StorageError
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    JoinResult,
    Relation,
    Schema,
    Tuple,
    make_result,
    result_multiset,
    tuples_to_columns,
)


def test_tuple_sort_key_orders_by_key_first():
    t1 = Tuple(key=1, tid=99, source=SOURCE_B)
    t2 = Tuple(key=2, tid=0, source=SOURCE_A)
    assert t1.sort_key() < t2.sort_key()


def test_tuple_sort_key_breaks_ties_by_identity():
    t1 = Tuple(key=5, tid=0, source=SOURCE_A)
    t2 = Tuple(key=5, tid=1, source=SOURCE_A)
    assert t1.sort_key() < t2.sort_key()


def test_tuple_identity_is_source_and_tid():
    t = Tuple(key=5, tid=3, source=SOURCE_B)
    assert t.identity() == (SOURCE_B, 3)


def test_tuples_are_frozen():
    t = Tuple(key=1, tid=0)
    with pytest.raises(AttributeError):
        t.key = 2  # type: ignore[misc]


def test_join_result_requires_matching_keys():
    a = Tuple(key=1, tid=0, source=SOURCE_A)
    b = Tuple(key=2, tid=0, source=SOURCE_B)
    with pytest.raises(ConfigurationError):
        JoinResult(left=a, right=b)


def test_join_result_key_property():
    a = Tuple(key=7, tid=0, source=SOURCE_A)
    b = Tuple(key=7, tid=0, source=SOURCE_B)
    assert JoinResult(left=a, right=b).key == 7


def test_make_result_orients_a_side_left():
    a = Tuple(key=7, tid=0, source=SOURCE_A)
    b = Tuple(key=7, tid=1, source=SOURCE_B)
    for first, second in [(a, b), (b, a)]:
        result = make_result(first, second)
        assert result.left.source == SOURCE_A
        assert result.right.source == SOURCE_B


def test_make_result_rejects_same_source():
    a1 = Tuple(key=7, tid=0, source=SOURCE_A)
    a2 = Tuple(key=7, tid=1, source=SOURCE_A)
    with pytest.raises(ConfigurationError):
        make_result(a1, a2)


def test_result_identity_is_pair_of_identities():
    a = Tuple(key=7, tid=0, source=SOURCE_A)
    b = Tuple(key=7, tid=1, source=SOURCE_B)
    assert make_result(b, a).identity() == ((SOURCE_A, 0), (SOURCE_B, 1))


def test_schema_rejects_bad_key_range():
    with pytest.raises(ConfigurationError):
        Schema(name="r", key_range=0)


def test_relation_from_keys_assigns_sequential_tids():
    rel = Relation.from_keys([5, 5, 7], source=SOURCE_B)
    assert [t.tid for t in rel] == [0, 1, 2]
    assert [t.key for t in rel] == [5, 5, 7]
    assert all(t.source == SOURCE_B for t in rel)


@pytest.mark.parametrize("bad", [1.5, "3", None])
def test_non_integer_keys_and_tids_are_rejected(bad):
    # A silent int64 cast would store 1.5 as 1 and '3' as 3.
    with pytest.raises(StorageError):
        Relation.from_keys([1, bad])
    with pytest.raises(StorageError):
        Relation.from_keys(np.array([1, bad]))
    with pytest.raises(StorageError):
        tuples_to_columns([Tuple(key=1, tid=0), Tuple(key=bad, tid=1)])
    with pytest.raises(StorageError):
        tuples_to_columns([Tuple(key=1, tid=0), Tuple(key=1, tid=bad)])
    with pytest.raises(StorageError):
        Relation(Schema(name="r"), [Tuple(key=bad, tid=0)])


def test_integer_keys_are_stored_as_int64():
    keys = np.arange(4, dtype=np.int64)
    assert Relation.from_keys(keys).columns().keys is keys  # no copy
    narrow = Relation.from_keys(np.arange(4, dtype=np.int32)).columns().keys
    assert narrow.dtype == np.int64 and narrow.tolist() == [0, 1, 2, 3]
    cols = tuples_to_columns([Tuple(key=np.int64(7), tid=0), Tuple(key=8, tid=1)])
    assert cols.keys.dtype == np.int64 and cols.keys.tolist() == [7, 8]
    assert Relation.from_keys([]).columns().keys.dtype == np.int64


def test_nested_keys_are_rejected():
    with pytest.raises(StorageError):
        Relation.from_keys([1, [2]])
    with pytest.raises(StorageError):
        Relation.from_keys(np.zeros((2, 2), dtype=np.int64))


def test_relation_len_iter_getitem():
    rel = Relation.from_keys([1, 2, 3])
    assert len(rel) == 3
    assert rel[1].key == 2
    assert [t.key for t in rel] == [1, 2, 3]


def test_relation_keys_in_delivery_order():
    rel = Relation.from_keys([3, 1, 2])
    assert rel.keys() == [3, 1, 2]


def test_relation_source_label():
    rel = Relation.from_keys([1], source=SOURCE_B)
    assert rel.source == SOURCE_B


def test_empty_relation_source_falls_back_to_name():
    rel = Relation.from_keys([], source=SOURCE_B, name="empty_b")
    assert rel.source == "empty_b"


def test_result_multiset_counts_duplicates():
    a = Tuple(key=7, tid=0, source=SOURCE_A)
    b = Tuple(key=7, tid=1, source=SOURCE_B)
    r = make_result(a, b)
    counts = result_multiset([r, r])
    assert counts == {r.identity(): 2}


def test_result_multiset_distinguishes_tuples_with_equal_keys():
    a1 = Tuple(key=7, tid=0, source=SOURCE_A)
    a2 = Tuple(key=7, tid=1, source=SOURCE_A)
    b = Tuple(key=7, tid=0, source=SOURCE_B)
    counts = result_multiset([make_result(a1, b), make_result(a2, b)])
    assert len(counts) == 2
