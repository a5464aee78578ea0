"""Protocol-abuse tests for the operator base class.

The engine promises a call order; these tests verify the base class
fails loudly (never corrupts state) when that order is violated.
"""

import pytest

from conftest import make_runtime
from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.errors import ProtocolError
from repro.joins.base import StreamingJoinOperator
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.sim.budget import WorkBudget
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple


class MinimalOperator(StreamingJoinOperator):
    name = "minimal"

    def on_tuple(self, t):
        pass

    def has_background_work(self):
        return False

    def on_blocked(self, budget):
        pass

    def finish(self, budget):
        self.mark_finished()


def test_unbound_runtime_access_raises():
    op = MinimalOperator()
    for attr in ("runtime", "clock", "disk", "costs", "recorder"):
        with pytest.raises(ProtocolError):
            getattr(op, attr)


@pytest.mark.parametrize(
    "make_operator, accessors",
    [
        (
            lambda: HashMergeJoin(HMJConfig(memory_capacity=100)),
            ("memory", "table", "scheduler", "state_summary"),
        ),
        (lambda: XJoin(memory_capacity=100), ("memory", "table")),
        (
            lambda: ProgressiveMergeJoin(memory_capacity=100),
            ("memory", "scheduler"),
        ),
    ],
    ids=["hmj", "xjoin", "pmj"],
)
def test_unbound_state_accessors_raise_protocol_error(make_operator, accessors):
    # Runtime-built state (pool, table, scheduler) is typed-unavailable
    # before bind: a ProtocolError, not a bare assertion or None access.
    op = make_operator()
    for name in accessors:
        with pytest.raises(ProtocolError, match="must be bound"):
            attr = getattr(op, name)
            if callable(attr):
                attr()


def test_double_bind_raises():
    op = MinimalOperator()
    op.bind(make_runtime())
    with pytest.raises(ProtocolError):
        op.bind(make_runtime())


def test_emit_before_bind_raises():
    op = MinimalOperator()
    a = Tuple(key=1, tid=0, source=SOURCE_A)
    b = Tuple(key=1, tid=0, source=SOURCE_B)
    with pytest.raises(ProtocolError):
        op.emit(a, b, "phase")


def test_emit_after_finish_raises():
    op = MinimalOperator()
    runtime = make_runtime()
    op.bind(runtime)
    op.finish(WorkBudget.unbounded(runtime.clock))
    a = Tuple(key=1, tid=0, source=SOURCE_A)
    b = Tuple(key=1, tid=0, source=SOURCE_B)
    with pytest.raises(ProtocolError):
        op.emit(a, b, "phase")


def test_emit_charges_and_records():
    op = MinimalOperator()
    runtime = make_runtime()
    op.bind(runtime)
    a = Tuple(key=1, tid=0, source=SOURCE_A)
    b = Tuple(key=1, tid=0, source=SOURCE_B)
    op.emit(b, a, "phase")  # reversed order: must be re-oriented
    assert runtime.recorder.count == 1
    (result,) = runtime.recorder.results
    assert result.left.source == SOURCE_A
    assert runtime.clock.now == pytest.approx(runtime.costs.cpu_result_cost)


def test_charge_helpers_advance_clock():
    op = MinimalOperator()
    runtime = make_runtime()
    op.bind(runtime)
    op.charge_tuple()
    op.charge_probe(10)
    op.charge_sort(16)
    expected = (
        runtime.costs.cpu_tuple_cost
        + runtime.costs.probe_time(10)
        + runtime.costs.sort_time(16)
    )
    assert runtime.clock.now == pytest.approx(expected)


def test_charge_probe_zero_candidates_is_free():
    op = MinimalOperator()
    runtime = make_runtime()
    op.bind(runtime)
    op.charge_probe(0)
    assert runtime.clock.now == 0.0


def test_finished_flag_lifecycle():
    op = MinimalOperator()
    runtime = make_runtime()
    op.bind(runtime)
    assert not op.finished
    op.finish(WorkBudget.unbounded(runtime.clock))
    assert op.finished
