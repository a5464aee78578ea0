"""Unit tests for the merge scheduler.

Includes the paper's Figure 6 example: one bucket with two block pairs
where (A_b1, B_b1) and (A_b2, B_b2) were already joined in memory, so
the merging phase must join exactly the cross pairs (A_b1, B_b2) and
(A_b2, B_b1).
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.core.merging import MergeScheduler
from repro.metrics.recorder import MetricsRecorder
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple, result_multiset


def make_scheduler(n_groups=1, fan_in=2, page_size=4):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=page_size, io_cost=1.0))
    scheduler = MergeScheduler(
        disk=disk,
        clock=clock,
        costs=disk.costs,
        partition_prefix="test",
        fan_in=fan_in,
        n_groups=n_groups,
        recorder=MetricsRecorder(clock, disk),
    )
    return scheduler, clock, disk


def tuples_of(keys, source, tid_start=0):
    return sorted(
        (Tuple(key=k, tid=tid_start + i, source=source) for i, k in enumerate(keys)),
        key=Tuple.sort_key,
    )


def collect(scheduler, clock, budget=None):
    """Run merge work; return the results this call emitted."""
    recorder = scheduler._recorder
    before = recorder.count
    scheduler.work(budget or WorkBudget.unbounded(clock))
    return list(recorder.results)[before:]


def test_constructor_validation():
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel())
    for fan_in in (1, 2.5, float("nan")):
        with pytest.raises(ConfigurationError):
            MergeScheduler(disk, clock, disk.costs, "x", fan_in=fan_in, n_groups=1)
    with pytest.raises(ConfigurationError):
        MergeScheduler(disk, clock, disk.costs, "x", fan_in=2, n_groups=0)


def test_register_flush_assigns_shared_sequential_ids():
    scheduler, _, _ = make_scheduler()
    id0 = scheduler.register_flush(0, tuples_of([1], SOURCE_A), tuples_of([2], SOURCE_B))
    id1 = scheduler.register_flush(0, tuples_of([3], SOURCE_A), [])
    assert (id0, id1) == (0, 1)
    assert scheduler.block_numbers(0) == [0, 1]


def test_register_flush_rejects_fully_empty():
    scheduler, _, _ = make_scheduler()
    with pytest.raises(SimulationError):
        scheduler.register_flush(0, [], [])


def test_group_bounds_checked():
    scheduler, _, _ = make_scheduler(n_groups=2)
    with pytest.raises(ConfigurationError):
        scheduler.register_flush(2, tuples_of([1], SOURCE_A), [])


def test_no_result_work_when_empty():
    scheduler, _, _ = make_scheduler()
    assert not scheduler.has_result_work()


def test_no_result_work_for_single_pair():
    # One block pair with the same number was fully joined in memory.
    scheduler, _, _ = make_scheduler()
    scheduler.register_flush(0, tuples_of([1, 2], SOURCE_A), tuples_of([2], SOURCE_B))
    assert not scheduler.has_result_work()


def test_no_result_work_when_one_side_absent():
    scheduler, _, _ = make_scheduler()
    scheduler.register_flush(0, tuples_of([1], SOURCE_A), [])
    scheduler.register_flush(0, tuples_of([2], SOURCE_A), [])
    assert not scheduler.has_result_work()


def test_result_work_for_two_block_numbers():
    scheduler, _, _ = make_scheduler()
    scheduler.register_flush(0, tuples_of([1], SOURCE_A), tuples_of([1], SOURCE_B))
    scheduler.register_flush(0, tuples_of([2], SOURCE_A), tuples_of([2], SOURCE_B))
    assert scheduler.has_result_work()


def test_figure6_example_joins_only_cross_blocks():
    """The paper's Figure 6: blocks b1 and b2 per source.

    b1 holds keys {4} (A) / {4} (B); b2 holds {6} (A) / {6} (B) plus a
    cross match: A_b1 also has key 9 matching B_b2's key 9.  Same-block
    pairs (4,4) and (6,6) must NOT be produced; cross-block (9,9) must.
    """
    scheduler, clock, _ = make_scheduler()
    scheduler.register_flush(
        0, tuples_of([4, 9], SOURCE_A), tuples_of([4], SOURCE_B, tid_start=100)
    )
    scheduler.register_flush(
        0,
        tuples_of([6], SOURCE_A, tid_start=10),
        tuples_of([6, 9], SOURCE_B, tid_start=110),
    )
    results = collect(scheduler, clock)
    keys = sorted(r.key for r in results)
    assert keys == [9]
    assert not scheduler.has_result_work()


def test_merge_emits_all_cross_pairs_with_duplicate_keys():
    scheduler, clock, _ = make_scheduler()
    # Block 0: A={5,5}, B={}.  Block 1: A={}, B={5,5,5}.
    scheduler.register_flush(0, tuples_of([5, 5], SOURCE_A), [])
    scheduler.register_flush(0, [], tuples_of([5, 5, 5], SOURCE_B))
    results = collect(scheduler, clock)
    assert len(results) == 6  # 2 x 3 cross pairs
    counts = result_multiset(results)
    assert all(v == 1 for v in counts.values())


def test_merged_output_gets_fresh_shared_number():
    scheduler, clock, _ = make_scheduler()
    scheduler.register_flush(0, tuples_of([1], SOURCE_A), tuples_of([2], SOURCE_B))
    scheduler.register_flush(0, tuples_of([3], SOURCE_A), tuples_of([4], SOURCE_B))
    collect(scheduler, clock)
    assert scheduler.block_numbers(0) == [2]


def test_multi_pass_fan_in_and_no_duplicates():
    scheduler, clock, _ = make_scheduler(fan_in=2)
    # Six block pairs of matching keys; every cross-block pair (i != j)
    # must appear exactly once across the multi-pass merge.
    for i in range(6):
        scheduler.register_flush(
            0,
            tuples_of([7], SOURCE_A, tid_start=i),
            tuples_of([7], SOURCE_B, tid_start=100 + i),
        )
    results = collect(scheduler, clock)
    counts = result_multiset(results)
    assert all(v == 1 for v in counts.values())
    # 6x6 total pairs minus the 6 same-block pairs joined in memory.
    assert len(results) == 30


def test_round_robin_across_groups():
    scheduler, clock, _ = make_scheduler(n_groups=3, fan_in=2)
    for g in range(3):
        scheduler.register_flush(
            g, tuples_of([g], SOURCE_A), tuples_of([g + 10], SOURCE_B)
        )
        scheduler.register_flush(
            g,
            tuples_of([g], SOURCE_A, tid_start=5),
            tuples_of([g], SOURCE_B, tid_start=15),
        )
    results = collect(scheduler, clock)
    assert sorted(r.key for r in results) == [0, 1, 2]
    assert not scheduler.has_result_work()


def test_work_respects_budget_and_resumes():
    scheduler, clock, _ = make_scheduler(page_size=2)
    keys = list(range(40))
    scheduler.register_flush(0, tuples_of(keys, SOURCE_A), [])
    scheduler.register_flush(0, [], tuples_of(keys, SOURCE_B))
    # A budget that expires almost immediately: only partial work done.
    tight = WorkBudget(clock=clock, deadline=clock.now + 1.5)
    first = collect(scheduler, clock, budget=tight)
    assert scheduler.has_result_work()  # suspended pass counts as work
    rest = collect(scheduler, clock)
    assert len(first) + len(rest) == 40
    counts = result_multiset(first + rest)
    assert all(v == 1 for v in counts.values())
    assert not scheduler.has_result_work()


def test_final_pass_skips_output_writes():
    scheduler, clock, disk = make_scheduler(page_size=4)
    scheduler.register_flush(0, tuples_of([1, 2], SOURCE_A), tuples_of([1], SOURCE_B))
    scheduler.register_flush(0, tuples_of([3], SOURCE_A), tuples_of([2], SOURCE_B))
    written_before = disk.pages_written
    scheduler.mark_input_ended()
    collect(scheduler, clock)
    assert disk.pages_written == written_before  # nothing written back
    assert scheduler.block_numbers(0) == []


def test_non_final_pass_writes_merged_runs():
    scheduler, clock, disk = make_scheduler(fan_in=2)
    for i in range(3):  # 3 blocks > fan_in: first pass is not final
        scheduler.register_flush(
            0,
            tuples_of([i], SOURCE_A, tid_start=i),
            tuples_of([i + 50], SOURCE_B, tid_start=i),
        )
    scheduler.mark_input_ended()
    written_before = disk.pages_written
    collect(scheduler, clock)
    assert disk.pages_written > written_before


def test_register_after_input_ended_rejected():
    scheduler, _, _ = make_scheduler()
    scheduler.mark_input_ended()
    with pytest.raises(SimulationError):
        scheduler.register_flush(0, tuples_of([1], SOURCE_A), [])


def test_disk_tuples_accounting():
    scheduler, _, _ = make_scheduler()
    scheduler.register_flush(0, tuples_of([1, 2], SOURCE_A), tuples_of([3], SOURCE_B))
    assert scheduler.disk_tuples(0) == 3


def test_properties():
    scheduler, _, _ = make_scheduler(n_groups=4, fan_in=3)
    assert scheduler.n_groups == 4
    assert scheduler.fan_in == 3
