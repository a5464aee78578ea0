"""Property tests at the engine and scheduler level.

Beyond the operator-level theorems, these exercise the *timing* layer:
random arrival traces (including traces that force blocked windows and
processing backlogs) must never change the output multiset, and random
budget slicing of merge work must be exactly resumable.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.core.merging import MergeScheduler
from repro.joins.blocking import hash_join
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.metrics.recorder import MetricsRecorder
from repro.net.arrival import TraceArrival
from repro.net.source import NetworkSource
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.engine import run_join
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    Relation,
    Tuple,
    result_multiset,
)

keys_lists = st.lists(st.integers(min_value=0, max_value=20), max_size=40)
gap_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False), max_size=40
)

OPERATORS = {
    "hmj": lambda: HashMergeJoin(HMJConfig(memory_capacity=12, n_buckets=8)),
    "xjoin": lambda: XJoin(memory_capacity=12, n_buckets=4),
    "pmj": lambda: ProgressiveMergeJoin(memory_capacity=12, fan_in=2),
}


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    gaps_a=gap_lists,
    gaps_b=gap_lists,
    op_name=st.sampled_from(sorted(OPERATORS)),
    threshold=st.floats(min_value=0.01, max_value=0.3, allow_nan=False),
)
def test_arrival_timing_never_changes_the_output(
    keys_a, keys_b, gaps_a, gaps_b, op_name, threshold
):
    rel_a = Relation.from_keys(keys_a, source=SOURCE_A)
    rel_b = Relation.from_keys(keys_b, source=SOURCE_B)
    # Pad the drawn gap lists to the relation sizes.
    gaps_a = (gaps_a + [0.05] * len(rel_a))[: len(rel_a)]
    gaps_b = (gaps_b + [0.05] * len(rel_b))[: len(rel_b)]
    src_a = NetworkSource(rel_a, TraceArrival(gaps_a))
    src_b = NetworkSource(rel_b, TraceArrival(gaps_b))
    result = run_join(
        src_a,
        src_b,
        OPERATORS[op_name](),
        blocking_threshold=threshold,
    )
    assert result_multiset(result.results) == result_multiset(
        hash_join(rel_a, rel_b)
    )
    # Timing invariants hold regardless of trace shape.
    times = [e.time for e in result.recorder.events]
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))


@given(
    block_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=8),
    fan_in=st.integers(min_value=2, max_value=4),
    slices=st.lists(st.floats(min_value=0.001, max_value=0.2), max_size=30),
    key_range=st.integers(min_value=1, max_value=10),
)
def test_merge_scheduler_exact_under_random_interruption(
    block_sizes, fan_in, slices, key_range
):
    """Random budget slicing must neither lose nor duplicate pairs."""
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=3, io_cost=0.01))
    recorder = MetricsRecorder(clock, disk)
    scheduler = MergeScheduler(
        disk=disk,
        clock=clock,
        costs=disk.costs,
        partition_prefix="prop",
        fan_in=fan_in,
        n_groups=1,
        recorder=recorder,
    )
    expected = 0
    all_blocks: list[tuple[int, list[Tuple], list[Tuple]]] = []
    tid = 0
    for i, size in enumerate(block_sizes):
        tuples_a = sorted(
            (
                Tuple(key=(tid + j) % key_range, tid=tid + j, source=SOURCE_A)
                for j in range(size)
            ),
            key=Tuple.sort_key,
        )
        tuples_b = sorted(
            (
                Tuple(key=(tid + j + 1) % key_range, tid=tid + j, source=SOURCE_B)
                for j in range(size)
            ),
            key=Tuple.sort_key,
        )
        tid += size
        scheduler.register_flush(0, tuples_a, tuples_b)
        all_blocks.append((i, tuples_a, tuples_b))
    # Expected: every cross-block equal-key pair.
    expected_pairs = set()
    for i, a_tuples, _ in all_blocks:
        for j, _, b_tuples in all_blocks:
            if i == j:
                continue
            for ta in a_tuples:
                for tb in b_tuples:
                    if ta.key == tb.key:
                        expected_pairs.add((ta.identity(), tb.identity()))

    # Random interruption schedule, then run to completion.
    for s in slices:
        scheduler.work(WorkBudget(clock=clock, deadline=clock.now + s))
    scheduler.work(WorkBudget.unbounded(clock))
    counts = result_multiset(recorder.results)
    assert set(counts) == expected_pairs
    assert all(v == 1 for v in counts.values())
    assert not scheduler.has_result_work()
