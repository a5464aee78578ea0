"""Unit tests for XJoin, including its timestamp duplicate prevention."""

import numpy as np
import pytest

from conftest import assert_matches_oracle, drive, interleave, keys_relation, make_runtime
from repro.core.columnar import ColumnBatch
from repro.errors import ConfigurationError
from repro.joins.xjoin import XJoin
from repro.sim.budget import WorkBudget
from repro.storage.tuples import SOURCE_A, SOURCE_B


def test_validation():
    with pytest.raises(ConfigurationError):
        XJoin(memory_capacity=1)
    with pytest.raises(ConfigurationError):
        XJoin(memory_capacity=10, n_buckets=0)


def test_matches_oracle_in_memory(small_relations):
    rel_a, rel_b = small_relations
    op = XJoin(memory_capacity=1000)
    runtime = assert_matches_oracle(op, rel_a, rel_b)
    assert op.flush_count == 0
    # All matches found in memory; stage 3 adds nothing.
    assert runtime.recorder.count_in_phase("stage1") == runtime.recorder.count


def test_matches_oracle_with_spilling(small_relations):
    rel_a, rel_b = small_relations
    op = XJoin(memory_capacity=4, n_buckets=4)
    runtime = assert_matches_oracle(op, rel_a, rel_b)
    assert op.flush_count > 0


def test_spilled_blocks_own_their_arrays():
    # Batch delivery fills the hash arena, so extracted buckets are
    # arena views; a spilled block must hold copies, or it would pin
    # the whole arena array the table replaces at its next merge.
    n = 400
    rng = np.random.default_rng(0)
    batch = ColumnBatch(
        keys=rng.integers(0, 50, n),
        tids=np.arange(n, dtype=np.int64),
        is_a=np.arange(n) % 2 == 0,
        times=np.zeros(n),
    )
    op = XJoin(memory_capacity=40, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    op.on_column_batch(batch)
    blocks = [b for part in runtime.disk.partitions() for b in part]
    assert op.flush_count > 0 and blocks
    for block in blocks:
        assert block.columns().keys.base is None
        assert block.columns().tids.base is None


def test_stage3_recovers_separated_matches():
    keys = list(range(30))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = XJoin(memory_capacity=8, n_buckets=4)
    runtime = drive(op, list(rel_a) + list(rel_b))
    assert runtime.recorder.count == 30
    assert runtime.recorder.count_in_phase("stage3") > 0


def test_stage2_produces_results_while_blocked():
    keys = list(range(40))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = XJoin(memory_capacity=10, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    # All of A arrives (most of it spills), then B starts arriving and
    # stays in memory; a blocked window then joins disk-A x memory-B.
    for t in rel_a:
        op.on_tuple(t)
    for t in list(rel_b)[:8]:
        op.on_tuple(t)
    assert op.has_background_work()
    op.on_blocked(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count_in_phase("stage2") > 0
    # Finishing afterwards must not duplicate the stage-2 results.
    for t in list(rel_b)[8:]:
        op.on_tuple(t)
    op.finish(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count == 40


def test_repeated_blocked_windows_do_not_duplicate():
    keys = list(range(20))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = XJoin(memory_capacity=8, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    for t in rel_a:
        op.on_tuple(t)
    for t in list(rel_b)[:4]:
        op.on_tuple(t)
    op.on_blocked(WorkBudget.unbounded(runtime.clock))
    count_after_first = runtime.recorder.count
    # Nothing changed: a second blocked window must not re-emit.
    op.on_blocked(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count == count_after_first
    for t in list(rel_b)[4:]:
        op.on_tuple(t)
    op.finish(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count == 20


def test_overlap_check_detects_co_residency():
    rel_a = keys_relation([1], SOURCE_A)
    rel_b = keys_relation([1], SOURCE_B)
    op = XJoin(memory_capacity=100)
    runtime = make_runtime()
    op.bind(runtime)
    op.on_tuple(rel_a[0])
    op.on_tuple(rel_b[0])
    assert op._overlapped_in_memory(rel_a[0], rel_b[0])


def test_overlap_check_detects_separation():
    # A's tuple is flushed before B's arrives.
    rel_a = keys_relation(list(range(12)), SOURCE_A)
    rel_b = keys_relation([0], SOURCE_B)
    op = XJoin(memory_capacity=4, n_buckets=2)
    runtime = make_runtime()
    op.bind(runtime)
    for t in rel_a:
        op.on_tuple(t)
    op.on_tuple(rel_b[0])
    flushed = [t for t in rel_a if t.tid in op._dts[SOURCE_A]]
    assert flushed, "test requires at least one flushed A tuple"
    assert not op._overlapped_in_memory(flushed[0], rel_b[0])


@pytest.mark.parametrize("memory", [2, 4, 8, 32, 128])
def test_various_memory_sizes(memory, small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(XJoin(memory_capacity=memory, n_buckets=4), rel_a, rel_b)


@pytest.mark.parametrize("n_buckets", [1, 2, 16])
def test_various_bucket_counts(n_buckets, small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(
        XJoin(memory_capacity=5, n_buckets=n_buckets), rel_a, rel_b
    )


def test_all_equal_keys():
    rel_a = keys_relation([7] * 10, SOURCE_A)
    rel_b = keys_relation([7] * 8, SOURCE_B)
    runtime = drive(XJoin(memory_capacity=6, n_buckets=2), interleave(rel_a, rel_b))
    assert runtime.recorder.count == 80


def test_arrival_order_invariance(small_relations):
    rel_a, rel_b = small_relations
    orders = [
        interleave(rel_a, rel_b),
        list(rel_a) + list(rel_b),
        list(rel_b) + list(rel_a),
    ]
    outputs = []
    for order in orders:
        runtime = drive(XJoin(memory_capacity=5, n_buckets=4), order)
        outputs.append(sorted(r.identity() for r in runtime.recorder.results))
    assert all(out == outputs[0] for out in outputs)


def test_memory_budget_respected(small_relations):
    rel_a, rel_b = small_relations
    op = XJoin(memory_capacity=5, n_buckets=4)
    drive(op, interleave(rel_a, rel_b))
    assert op.memory.peak <= 5


# -- static-memory variant -----------------------------------------------------


def test_static_memory_matches_oracle(small_relations):
    from repro.joins.xjoin import XJoinStaticMemory

    rel_a, rel_b = small_relations
    assert_matches_oracle(
        XJoinStaticMemory(memory_capacity=6, n_buckets=4), rel_a, rel_b
    )


def test_static_memory_halves_are_enforced():
    from repro.joins.xjoin import XJoinStaticMemory

    rel_a = keys_relation(list(range(30)), SOURCE_A)
    op = XJoinStaticMemory(memory_capacity=10, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    for t in rel_a:  # only A arrives: it may never exceed its half
        op.on_tuple(t)
        assert op._side_used[SOURCE_A] <= op._side_capacity[SOURCE_A]
    assert op.memory.used <= 5
    assert op.flush_count > 0


def test_static_memory_rejects_resize():
    from repro.errors import ConfigurationError
    from repro.joins.xjoin import XJoinStaticMemory

    op = XJoinStaticMemory(memory_capacity=10)
    op.bind(make_runtime())
    with pytest.raises(ConfigurationError):
        op.resize_memory(20)


def test_static_memory_stage3_resets_side_accounting():
    from repro.joins.xjoin import XJoinStaticMemory
    from repro.sim.budget import WorkBudget as WB

    rel_a = keys_relation(list(range(20)), SOURCE_A)
    rel_b = keys_relation(list(range(20)), SOURCE_B)
    op = XJoinStaticMemory(memory_capacity=8, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    for t in interleave(rel_a, rel_b):
        op.on_tuple(t)
    op.finish(WB.unbounded(runtime.clock))
    assert op._side_used == {SOURCE_A: 0, SOURCE_B: 0}
    assert runtime.recorder.count == 20


# -- timestamp duplicate prevention ------------------------------------------------


def test_timestamps_mode_matches_oracle(small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(XJoin(memory_capacity=5, n_buckets=4), rel_a, rel_b)


def test_timestamps_mode_records_usage_on_pass_completion():
    keys = list(range(40))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = XJoin(memory_capacity=10, n_buckets=4)
    runtime = make_runtime()
    op.bind(runtime)
    for t in rel_a:
        op.on_tuple(t)
    for t in list(rel_b)[:8]:
        op.on_tuple(t)
    assert op._usages == {}
    op.on_blocked(WorkBudget.unbounded(runtime.clock))
    assert op._usages  # completed passes recorded
    assert runtime.recorder.count_in_phase("stage2") > 0
    for t in list(rel_b)[8:]:
        op.on_tuple(t)
    op.finish(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count == 40


def test_suspended_stage2_pass_is_completed_before_stage3():
    # A pass interrupted mid-way must not leave half-covered usage:
    # finish() drains it first, then stage 3 may rely on the record.
    keys = list(range(60))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = XJoin(memory_capacity=12, n_buckets=2)
    runtime = make_runtime()
    op.bind(runtime)
    for t in rel_a:
        op.on_tuple(t)
    for t in list(rel_b)[:10]:
        op.on_tuple(t)
    # A very tight budget: the pass suspends almost immediately.
    op.on_blocked(WorkBudget(clock=runtime.clock, deadline=runtime.clock.now + 1e-6))
    assert op._stage2_active is not None
    for t in list(rel_b)[10:]:
        op.on_tuple(t)
    op.finish(WorkBudget.unbounded(runtime.clock))
    from conftest import assert_matches_oracle as _  # noqa: F401
    from repro.joins.blocking import hash_join
    from repro.storage.tuples import result_multiset

    expected = result_multiset(hash_join(rel_a, rel_b))
    actual = result_multiset(runtime.recorder.results)
    assert actual == expected
    assert all(v == 1 for v in actual.values())
