"""Property-based tests for core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.flushing import (
    AdaptiveFlushingPolicy,
    FlushLargestPolicy,
    FlushSmallestPolicy,
)
from repro.core.summary import BucketSummaryTable
from repro.errors import MemoryBudgetError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.memory import MemoryPool
from repro.storage.pages import page_utilisation, pages_needed, split_into_pages
from repro.storage.runs import SortedRun
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.testing.scalar_merge import merge_sorted_runs


@given(
    ops=st.lists(st.integers(min_value=-20, max_value=20), max_size=50),
    capacity=st.integers(min_value=1, max_value=50),
)
def test_memory_pool_usage_always_within_bounds(ops, capacity):
    pool = MemoryPool(capacity)
    for op in ops:
        try:
            if op >= 0:
                pool.allocate(op)
            else:
                pool.release(-op)
        except MemoryBudgetError:
            pass
        assert 0 <= pool.used <= pool.capacity
        assert pool.peak >= pool.used
        assert pool.free == pool.capacity - pool.used


@given(
    n=st.integers(min_value=0, max_value=10_000),
    page_size=st.integers(min_value=1, max_value=512),
)
def test_pages_needed_is_exact_ceiling(n, page_size):
    pages = pages_needed(n, page_size)
    assert pages * page_size >= n
    assert (pages - 1) * page_size < n or pages == 0
    assert 0.0 <= page_utilisation(n, page_size) <= 1.0


@given(
    items=st.lists(st.integers(), max_size=200),
    page_size=st.integers(min_value=1, max_value=17),
)
def test_split_into_pages_partitions_exactly(items, page_size):
    pages = list(split_into_pages(items, page_size))
    assert [x for page in pages for x in page] == items
    assert all(1 <= len(p) <= page_size for p in pages)


@given(
    runs_keys=st.lists(
        st.lists(st.integers(min_value=0, max_value=100), max_size=30),
        min_size=1,
        max_size=6,
    )
)
def test_merge_iterator_yields_sorted_union(runs_keys):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=4))
    runs = []
    for i, keys in enumerate(runs_keys):
        tuples = sorted(
            (Tuple(key=k, tid=j, source=SOURCE_A) for j, k in enumerate(keys)),
            key=Tuple.sort_key,
        )
        if not tuples:
            continue
        block = disk.write_block("p", tuples, block_id=i, sorted_by_key=True)
        runs.append(SortedRun(block=block, origin=i))
    merged = merge_sorted_runs(runs, disk)
    keys_out = [t.key for t, _ in merged]
    assert keys_out == sorted(keys_out)
    assert sorted(keys_out) == sorted(k for keys in runs_keys for k in keys)


@given(
    layout=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    ),
    a=st.integers(min_value=0, max_value=30),
    b=st.integers(min_value=1, max_value=100),
)
def test_adaptive_policy_always_returns_a_nonempty_victim(layout, a, b):
    if all(na + nb == 0 for na, nb in layout):
        return  # nothing to flush: policies legitimately refuse
    table = BucketSummaryTable(len(layout))
    for g, (na, nb) in enumerate(layout):
        table.add(SOURCE_A, g, na)
        table.add(SOURCE_B, g, nb)
    policy = AdaptiveFlushingPolicy(a=a, b=b)
    policy.prepare(memory_capacity=max(table.total, 1), n_groups=len(layout))
    (victim,) = policy.select_victims(table)
    assert table.pair_total(victim) > 0


@given(
    layout=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_smallest_and_largest_are_extremes(layout):
    if all(na + nb == 0 for na, nb in layout):
        return
    table = BucketSummaryTable(len(layout))
    for g, (na, nb) in enumerate(layout):
        table.add(SOURCE_A, g, na)
        table.add(SOURCE_B, g, nb)
    (small,) = FlushSmallestPolicy().select_victims(table)
    (large,) = FlushLargestPolicy().select_victims(table)
    nonempty_totals = [table.pair_total(g) for g in table.nonempty_groups()]
    assert table.pair_total(small) == min(nonempty_totals)
    assert table.pair_total(large) == max(nonempty_totals)


@given(
    deltas=st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=30)
)
def test_clock_is_monotone_under_any_advance_sequence(deltas):
    clock = VirtualClock()
    last = 0.0
    for d in deltas:
        clock.advance(d)
        assert clock.now >= last
        last = clock.now


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20),
    page_size=st.integers(min_value=1, max_value=64),
)
def test_disk_counters_match_sum_of_block_pages(sizes, page_size):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=page_size, io_cost=1.0))
    for i, n in enumerate(sizes):
        disk.write_block("p", [Tuple(key=0, tid=j) for j in range(n)], block_id=i)
    expected = sum(pages_needed(n, page_size) for n in sizes)
    assert disk.pages_written == expected
    assert clock.now == pytest.approx(float(expected))
