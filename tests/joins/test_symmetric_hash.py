"""Unit tests for the symmetric hash join."""

import pytest

from conftest import assert_matches_oracle, drive, interleave, keys_relation, make_runtime
from repro.errors import MemoryBudgetError, ProtocolError
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.sim.budget import WorkBudget
from repro.storage.tuples import SOURCE_A, SOURCE_B


def test_matches_oracle(small_relations):
    rel_a, rel_b = small_relations
    runtime = assert_matches_oracle(SymmetricHashJoin(), rel_a, rel_b)
    assert runtime.disk.io_count == 0


def test_unbound_table_raises_protocol_error():
    with pytest.raises(ProtocolError):
        SymmetricHashJoin().table


def test_results_stream_immediately(small_relations):
    rel_a, rel_b = small_relations
    op = SymmetricHashJoin()
    runtime = make_runtime()
    op.bind(runtime)
    op.on_tuple(rel_a[0])  # key 1
    op.on_tuple(rel_b[6])  # key 2: no match yet
    assert runtime.recorder.count == 0
    op.on_tuple(rel_a[1])  # key 2: matches
    assert runtime.recorder.count == 1


def test_duplicate_keys_cross_product():
    rel_a = keys_relation([4, 4], SOURCE_A)
    rel_b = keys_relation([4, 4, 4], SOURCE_B)
    runtime = drive(SymmetricHashJoin(), interleave(rel_a, rel_b))
    assert runtime.recorder.count == 6


def test_unbounded_by_default(small_relations):
    rel_a, rel_b = small_relations
    op = SymmetricHashJoin()  # no memory budget
    drive(op, interleave(rel_a, rel_b))


def test_budget_overflow_raises():
    rel_a = keys_relation(list(range(10)), SOURCE_A)
    op = SymmetricHashJoin(memory_capacity=5)
    runtime = make_runtime()
    op.bind(runtime)
    with pytest.raises(MemoryBudgetError):
        for t in rel_a:
            op.on_tuple(t)


def test_no_background_work(small_relations):
    rel_a, rel_b = small_relations
    op = SymmetricHashJoin()
    runtime = make_runtime()
    op.bind(runtime)
    op.on_tuple(rel_a[0])
    assert not op.has_background_work()
    op.on_blocked(WorkBudget.unbounded(runtime.clock))  # must be a no-op
    assert runtime.recorder.count == 0


def test_all_results_labelled_hashing(small_relations):
    rel_a, rel_b = small_relations
    runtime = drive(SymmetricHashJoin(), interleave(rel_a, rel_b))
    assert {e.phase for e in runtime.recorder.events} == {"hashing"}
