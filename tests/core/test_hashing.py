"""Unit tests for the dual hash table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.hashing import _RADIX_ROWS_PER_PASS, DualHashTable, stable_order
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


_SPANS = [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62]
_LENGTHS = [0, 1, 2, _RADIX_ROWS_PER_PASS - 1, _RADIX_ROWS_PER_PASS,
            2 * _RADIX_ROWS_PER_PASS - 1, 2 * _RADIX_ROWS_PER_PASS, 5000]


@pytest.mark.parametrize("span", _SPANS)
@given(
    n=st.sampled_from(_LENGTHS),
    low=st.integers(min_value=-(2**40), max_value=2**40),
    distinct=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stable_order_is_stable_argsort(n, span, low, distinct, seed):
    """The digit passes give argsort's unique stable permutation: negative
    keys, ties (``distinct`` values, so rows repeat), the exact span
    edges of one and two 16-bit passes and lengths either side of the
    fallback."""
    rng = np.random.default_rng(seed)
    choices = np.unique(rng.integers(0, span, size=distinct, endpoint=True))
    values = low + rng.choice(choices, size=n)
    if n >= 2:
        values[rng.choice(n, size=2, replace=False)] = (low, low + span)
    assert values.dtype == np.int64
    order = stable_order(values)
    assert np.array_equal(order, np.argsort(values, kind="stable"))


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
    matches, candidates, _ = table.probe_insert(t(key=5, tid=9, source=SOURCE_A))
    assert [m.tid for m in matches] == [0]
    assert candidates == 2  # whole opposite bucket scanned


def test_probe_does_not_match_own_source():
    table = DualHashTable(4, 2)
    table.insert(t(key=5, tid=0, source=SOURCE_A))
    matches, _, _ = table.probe_insert(t(key=5, tid=1, source=SOURCE_A))
    assert list(matches) == []


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


def test_largest_bucket_per_source_tie_breaks_to_low_index():
    table = DualHashTable(8, 8)
    assert table.largest_bucket(SOURCE_B) == (SOURCE_B, 0)
    by_bucket = {}
    for k in range(200):
        by_bucket.setdefault(table.bucket_of(k), k)
    low, high = sorted(by_bucket)[2], sorted(by_bucket)[5]
    # Source B: two tuples in each of two buckets, one stored by a batch
    # (arena) and one per tuple (tail), so both parts are counted.
    keys = np.array([by_bucket[high], by_bucket[low]], dtype=np.int64)
    table.probe_insert_batch(
        keys, np.arange(2, dtype=np.int64), np.zeros(2, dtype=bool), None,
        table.hash_batch(keys),
    )
    table.insert(t(by_bucket[high], tid=2, source=SOURCE_B))
    table.insert(t(by_bucket[low], tid=3, source=SOURCE_B))
    # Source A holds the largest bucket overall, which a B-only query ignores.
    for tid in range(3):
        table.insert(t(by_bucket[high], tid=tid, source=SOURCE_A))
    assert table.largest_bucket(SOURCE_B) == (SOURCE_B, low)
    assert table.largest_bucket(SOURCE_A) == (SOURCE_A, high)
    assert table.largest_bucket() == (SOURCE_A, high)
    table.insert(t(by_bucket[low], tid=4, source=SOURCE_B))
    assert table.largest_bucket() == (SOURCE_A, high)  # 3 vs 3: A wins


def test_repr_counts_tuples():
    table = DualHashTable(4, 2)
    table.insert(t(key=1))
    assert "held=1" in repr(table)


def test_probe_insert_matches_probe_then_insert():
    import random

    rng = random.Random(7)
    fused = DualHashTable(16, 4)
    naive = DualHashTable(16, 4)
    model = _Model(naive)  # the probe, modelled on a dict of lists
    for i in range(600):
        source = SOURCE_A if rng.random() < 0.5 else SOURCE_B
        tup = t(rng.randrange(40), tid=i, source=source)
        expected_matches, expected_candidates, _ = model.probe_insert(tup)
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


def test_construction_allocates_no_per_bucket_objects():
    tracemalloc.start()
    try:
        table = DualHashTable(n_buckets=10**6, n_groups=1000)
        _, peak = tracemalloc.get_traced_memory()
        blocks = sum(s.count for s in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    assert table.bucket_size(SOURCE_B, 10**6 - 1) == 0
    # A few arrays for the whole table; a list per (source, bucket, column)
    # would be millions of blocks and over 200 MB.
    assert peak < 64 * 2**20
    assert blocks < 1000


# -- differential test against a dict-of-lists reference model ---------------

_KEYS = st.integers(min_value=0, max_value=12)
_PAYLOADS = st.none() | st.sampled_from(["p", ("t", 1)])
_SOURCES = st.sampled_from([SOURCE_A, SOURCE_B])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tuple"), _SOURCES, _KEYS, _PAYLOADS),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_SOURCES, _KEYS, _PAYLOADS), max_size=12),
            st.booleans(),
        ),
        st.tuples(
            st.just("extract"),
            _SOURCES,
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["boxed", "columns", "discard"]),
        ),
        st.tuples(st.just("split"), st.integers(min_value=0, max_value=3), st.integers(2, 4)),
        st.tuples(st.just("largest"), st.none() | _SOURCES),
    ),
    max_size=30,
)


class _Model:
    """The reference: one insertion-ordered tuple list per (source, bucket).

    Routing comes from the table under test (``bucket_of``); storage,
    probing, extraction and sub-split are modelled here.
    """

    def __init__(self, table):
        self.table = table
        self.cols = {}

    def col(self, source, bucket):
        return self.cols.setdefault((source, bucket), [])

    def all_buckets(self):
        table = self.table
        return [b for g in range(table.n_groups) for b in table.buckets_in_group(g)]

    def probe_insert(self, tup):
        bucket = self.table.bucket_of(tup.key)
        other = SOURCE_B if tup.source == SOURCE_A else SOURCE_A
        col = self.col(other, bucket)
        matches = [m for m in col if m.key == tup.key]
        self.col(tup.source, bucket).append(tup)
        return matches, len(col), bucket

    def take(self, source, group):
        out = []
        for b in self.table.buckets_in_group(group):
            out += self.cols.pop((source, b), [])
        return out

    def split(self, group):
        for b in self.table.buckets_in_group(group):
            for source in (SOURCE_A, SOURCE_B):
                for tup in self.cols.pop((source, b), []):
                    self.col(source, self.table.bucket_of(tup.key)).append(tup)

    def largest(self, source):
        best, best_size = (SOURCE_A, 0), -1
        for name in (SOURCE_A, SOURCE_B) if source is None else (source,):
            for b in sorted(self.all_buckets()):
                if len(self.col(name, b)) > best_size:
                    best, best_size = (name, b), len(self.col(name, b))
        return best


def _check_differential(shape, payloads, ops):
    table = DualHashTable(*shape)
    model = _Model(table)
    tids = {SOURCE_A: 0, SOURCE_B: 0}

    def make(source, key, payload):
        tids[source] += 1
        return Tuple(key, tids[source], source, payload if payloads else None)

    for op in ops:
        kind = op[0]
        if kind == "tuple":
            tup = make(*op[1:])
            matches, candidates, bucket = table.probe_insert(tup)
            assert (list(matches), candidates, bucket) == model.probe_insert(tup)
        elif kind == "batch":
            rows = [make(*row) for row in op[1]]
            need_pairs = op[2]
            keys = np.array([r.key for r in rows], dtype=np.int64)
            pays = [r.payload for r in rows]
            plan = table.probe_insert_batch(
                keys,
                np.array([r.tid for r in rows], dtype=np.int64),
                np.array([r.source == SOURCE_A for r in rows], dtype=bool),
                pays if any(p is not None for p in pays) else None,
                table.hash_batch(keys),
                need_pairs=need_pairs,
            )
            expected = [model.probe_insert(r) for r in rows]
            assert plan.candidates.tolist() == [c for _, c, _ in expected]
            assert plan.match_counts.tolist() == [len(m) for m, _, _ in expected]
            pairs = [(i, m) for i, (ms, _, _) in enumerate(expected) for m in ms]
            if need_pairs and pairs:
                got = list(zip(plan.probe_rows.tolist(), plan.build_tids.tolist()))
                assert got == [(i, m.tid) for i, m in pairs]
                build_pays = [m.payload for _, m in pairs]
                if plan.build_payloads is None:
                    assert not any(build_pays)
                else:
                    assert plan.build_payloads == build_pays
        elif kind == "extract":
            _, source, group, how = op
            group %= table.n_groups
            expected = model.take(source, group)
            if how == "boxed":
                assert table.extract_group(source, group) == expected
            elif how == "columns":
                cols = table.extract_group_columns(source, group)
                assert cols.keys.tolist() == [x.key for x in expected]
                assert cols.tids.tolist() == [x.tid for x in expected]
                pays = cols.payloads or [None] * len(expected)
                assert pays == [x.payload for x in expected]
            else:
                assert table.discard_group(source, group) == len(expected)
        elif kind == "split":
            group = op[1] % table.n_groups
            if not table.is_split(group):
                held = sum(
                    len(model.col(s, b))
                    for s in (SOURCE_A, SOURCE_B)
                    for b in table.buckets_in_group(group)
                )
                assert table.subsplit_group(group, op[2]) == held
                model.split(group)
        else:
            assert table.largest_bucket(op[1]) == model.largest(op[1])
        for source in (SOURCE_A, SOURCE_B):
            for b in model.all_buckets():
                assert table.bucket_size(source, b) == len(model.col(source, b))
                assert table.bucket_contents(source, b) == model.col(source, b)
    assert table.total_tuples() == sum(len(c) for c in model.cols.values())


@given(
    shape=st.sampled_from([(1, 1), (4, 2), (8, 4), (8, 3)]),
    payloads=st.booleans(),
    ops=_OPS,
)
@example(
    # Per-tuple inserts, then a batch into the same bucket: the tail is
    # folded into the arena ahead of the batch rows.
    shape=(4, 2),
    payloads=True,
    ops=[
        ("tuple", SOURCE_A, 3, "p"),
        ("tuple", SOURCE_B, 3, None),
        ("batch", [(SOURCE_A, 3, None), (SOURCE_B, 3, ("t", 1))], True),
        ("tuple", SOURCE_B, 3, None),
        ("extract", SOURCE_A, 0, "columns"),
        ("extract", SOURCE_B, 1, "boxed"),
    ],
)
@example(
    # A batch, then per-tuple inserts into the same groups: extraction
    # meets arena and tail entries in one sub-split bucket (folded
    # first), and tail entries alone.
    shape=(8, 4),
    payloads=False,
    ops=[
        ("batch", [(SOURCE_A, k, None) for k in range(12)], False),
        ("split", 1, 3),
        ("tuple", SOURCE_A, 10, None),
        ("tuple", SOURCE_B, 4, None),
        ("extract", SOURCE_A, 1, "boxed"),
        ("extract", SOURCE_B, 2, "discard"),
        ("batch", [(SOURCE_B, 2, None), (SOURCE_A, 2, None)], True),
        ("largest", SOURCE_B),
    ],
)
def test_table_matches_reference_model(shape, payloads, ops):
    _check_differential(shape, payloads, ops)
