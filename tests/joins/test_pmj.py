"""Unit tests for the Progressive Merge Join."""

import pytest

from conftest import assert_matches_oracle, drive, interleave, keys_relation, make_runtime
from repro.errors import ConfigurationError
from repro.joins.pmj import ProgressiveMergeJoin
from repro.sim.budget import WorkBudget
from repro.storage.tuples import SOURCE_A, SOURCE_B


def test_validation():
    with pytest.raises(ConfigurationError):
        ProgressiveMergeJoin(memory_capacity=1)


def test_matches_oracle(small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(ProgressiveMergeJoin(memory_capacity=6), rel_a, rel_b)


def test_matches_oracle_fits_in_memory(small_relations):
    rel_a, rel_b = small_relations
    op = ProgressiveMergeJoin(memory_capacity=1000)
    runtime = assert_matches_oracle(op, rel_a, rel_b)
    # One final sort/join/flush pair of blocks, merged trivially.
    assert op.sort_flush_count == 1


def test_no_results_until_memory_fills():
    rel_a = keys_relation([1, 2, 3], SOURCE_A)
    rel_b = keys_relation([1, 2, 3], SOURCE_B)
    op = ProgressiveMergeJoin(memory_capacity=100)
    runtime = make_runtime()
    op.bind(runtime)
    for t in interleave(rel_a, rel_b):
        op.on_tuple(t)
    # Matches exist but memory never filled: nothing yet.
    assert runtime.recorder.count == 0
    op.finish(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count == 3


def test_sorting_phase_results_appear_at_fill():
    rel_a = keys_relation(list(range(10)), SOURCE_A)
    rel_b = keys_relation(list(range(10)), SOURCE_B)
    op = ProgressiveMergeJoin(memory_capacity=4)
    runtime = make_runtime()
    op.bind(runtime)
    emitted_at = []
    for i, t in enumerate(interleave(rel_a, rel_b)):
        before = runtime.recorder.count
        op.on_tuple(t)
        if runtime.recorder.count > before:
            emitted_at.append(i)
    # Results appear in bursts exactly when memory fills (every 4
    # tuples after the first fill).
    assert emitted_at
    assert all(i % 4 == 0 for i in emitted_at)


def test_phase_labels(small_relations):
    rel_a, rel_b = small_relations
    op = ProgressiveMergeJoin(memory_capacity=6)
    runtime = drive(op, interleave(rel_a, rel_b))
    phases = {e.phase for e in runtime.recorder.events}
    assert phases <= {"sorting", "merging"}
    assert "merging" in phases


def test_merge_on_block_produces_results_when_blocked():
    keys = list(range(30))
    rel_a = keys_relation(keys, SOURCE_A)
    rel_b = keys_relation(keys, SOURCE_B)
    op = ProgressiveMergeJoin(memory_capacity=10)
    runtime = make_runtime()
    op.bind(runtime)
    for t in list(rel_a) + list(rel_b):
        op.on_tuple(t)
    assert op.has_background_work()
    before = runtime.recorder.count
    op.on_blocked(WorkBudget.unbounded(runtime.clock))
    assert runtime.recorder.count > before


@pytest.mark.parametrize("memory", [2, 5, 9, 30])
def test_various_memory_sizes(memory, small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(ProgressiveMergeJoin(memory_capacity=memory), rel_a, rel_b)


@pytest.mark.parametrize("fan_in", [2, 3, 8])
def test_various_fan_ins(fan_in, small_relations):
    rel_a, rel_b = small_relations
    assert_matches_oracle(
        ProgressiveMergeJoin(memory_capacity=4, fan_in=fan_in), rel_a, rel_b
    )


def test_all_equal_keys():
    rel_a = keys_relation([3] * 8, SOURCE_A)
    rel_b = keys_relation([3] * 7, SOURCE_B)
    runtime = drive(
        ProgressiveMergeJoin(memory_capacity=4), interleave(rel_a, rel_b)
    )
    assert runtime.recorder.count == 56


def test_memory_budget_respected(small_relations):
    rel_a, rel_b = small_relations
    op = ProgressiveMergeJoin(memory_capacity=5)
    drive(op, interleave(rel_a, rel_b))
    assert op.memory.peak <= 5
