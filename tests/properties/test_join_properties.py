"""Property-based tests: the Section 5 theorems under random workloads.

Hypothesis drives the key lists, arrival interleavings, memory sizes,
and operator configurations; for every drawn case the streaming
operator's output multiset must equal the blocking oracle's
(completeness) with every multiplicity exactly one (uniqueness).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from conftest import drive
from repro.core.config import HMJConfig
from repro.core.flushing import (
    AdaptiveFlushingPolicy,
    FlushAllPolicy,
    FlushLargestPolicy,
    FlushSmallestPolicy,
)
from repro.core.hmj import HashMergeJoin
from repro.joins.blocking import hash_join
from repro.joins.dphj import DoublePipelinedHashJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.storage.tuples import SOURCE_A, SOURCE_B, Relation, result_multiset

keys_lists = st.lists(st.integers(min_value=0, max_value=25), max_size=60)


def check_theorems(operator, keys_a, keys_b, interleave_seed=0):
    rel_a = Relation.from_keys(keys_a, source=SOURCE_A)
    rel_b = Relation.from_keys(keys_b, source=SOURCE_B)
    order = list(rel_a) + list(rel_b)
    rng = np.random.default_rng(interleave_seed)
    rng.shuffle(order)
    runtime = drive(operator, order)
    expected = result_multiset(hash_join(rel_a, rel_b))
    actual = result_multiset(runtime.recorder.results)
    assert actual == expected
    assert all(v == 1 for v in actual.values())


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    n_buckets=st.integers(min_value=1, max_value=32),
    fan_in=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hmj_theorems(keys_a, keys_b, memory, n_buckets, fan_in, seed):
    cfg = HMJConfig(
        memory_capacity=memory, n_buckets=n_buckets, fan_in=fan_in, flush_fraction=0.2
    )
    check_theorems(HashMergeJoin(cfg), keys_a, keys_b, interleave_seed=seed)


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    fraction=st.floats(min_value=0.01, max_value=1.0),
    policy_idx=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hmj_theorems_across_policies(keys_a, keys_b, memory, fraction, policy_idx, seed):
    policy = [
        FlushAllPolicy(),
        FlushSmallestPolicy(),
        FlushLargestPolicy(),
        AdaptiveFlushingPolicy(),
    ][policy_idx]
    cfg = HMJConfig(
        memory_capacity=memory,
        n_buckets=16,
        flush_fraction=fraction,
        policy=policy,
    )
    check_theorems(HashMergeJoin(cfg), keys_a, keys_b, interleave_seed=seed)


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    n_buckets=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_xjoin_theorems(keys_a, keys_b, memory, n_buckets, seed):
    check_theorems(
        XJoin(memory_capacity=memory, n_buckets=n_buckets),
        keys_a,
        keys_b,
        interleave_seed=seed,
    )


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    fan_in=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pmj_theorems(keys_a, keys_b, memory, fan_in, seed):
    check_theorems(
        ProgressiveMergeJoin(memory_capacity=memory, fan_in=fan_in),
        keys_a,
        keys_b,
        interleave_seed=seed,
    )


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_dphj_theorems(keys_a, keys_b, memory, seed):
    check_theorems(
        DoublePipelinedHashJoin(memory_capacity=memory, n_buckets=4),
        keys_a,
        keys_b,
        interleave_seed=seed,
    )


@given(
    keys_a=keys_lists,
    keys_b=keys_lists,
    memory=st.integers(min_value=2, max_value=40),
    n_buckets=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    blocked_at=st.lists(st.integers(min_value=0, max_value=119), max_size=6),
    tight_budgets=st.booleans(),
)
def test_xjoin_timestamps_match_hash_join(
    keys_a, keys_b, memory, n_buckets, seed, blocked_at, tight_budgets
):
    """XJoin's timestamp scheme emits every pair exactly once.

    Blocked windows are injected mid-stream (some with budgets so tight
    the stage-2 pass suspends and must be resumed or completed at
    finish) so the reactive stage — whose usages the scheme relies on —
    is exercised, not just stages 1 and 3.
    """
    from conftest import make_runtime
    from repro.sim.budget import WorkBudget

    rel_a = Relation.from_keys(keys_a, source=SOURCE_A)
    rel_b = Relation.from_keys(keys_b, source=SOURCE_B)
    order = list(rel_a) + list(rel_b)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    op = XJoin(memory_capacity=memory, n_buckets=n_buckets)
    runtime = make_runtime()
    op.bind(runtime)
    block_points = set(blocked_at)
    for i, t in enumerate(order):
        if i in block_points and op.has_background_work():
            if tight_budgets:
                budget = WorkBudget(
                    clock=runtime.clock, deadline=runtime.clock.now + 1e-5
                )
            else:
                budget = WorkBudget.unbounded(runtime.clock)
            op.on_blocked(budget)
        op.on_tuple(t)
    op.finish(WorkBudget.unbounded(runtime.clock))
    expected = result_multiset(hash_join(rel_a, rel_b))
    actual = result_multiset(runtime.recorder.results)
    assert actual == expected
    assert all(v == 1 for v in actual.values())
