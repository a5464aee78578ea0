"""Tests for the arrival/processing event loop.

A scriptable stub operator records the protocol calls it receives so
the tests can assert *when* the engine considers both sources blocked,
how the clock synchronises to arrivals vs processing, and how early
stopping behaves.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.joins.base import StreamingJoinOperator
from repro.net.arrival import ConstantRate, TraceArrival
from repro.net.source import NetworkSource
from repro.sim.budget import WorkBudget
from repro.sim.costs import CostModel
from repro.sim.engine import JoinSimulation, run_join
from repro.storage.tuples import SOURCE_A, SOURCE_B, Relation, Tuple


class RecordingOperator(StreamingJoinOperator):
    """Stub operator that logs protocol calls and fakes matches."""

    name = "recording"

    def __init__(self, background_work: bool = False, work_step: float = 0.0):
        super().__init__()
        self.tuples: list[tuple[float, Tuple]] = []
        self.blocked_calls: list[tuple[float, float | None]] = []
        self.finish_time: float | None = None
        self._background_work = background_work
        self._work_step = work_step

    def on_tuple(self, t: Tuple) -> None:
        self.charge_tuple()
        self.tuples.append((self.clock.now, t))

    def has_background_work(self) -> bool:
        return self._background_work

    def on_blocked(self, budget: WorkBudget) -> None:
        self.blocked_calls.append((self.clock.now, budget.deadline))
        while self._work_step and not budget.expired():
            self.clock.advance(self._work_step)

    def finish(self, budget: WorkBudget) -> None:
        self.finish_time = self.clock.now
        self.mark_finished()


def sources_from_traces(
    gaps_a: list[float], gaps_b: list[float]
) -> tuple[NetworkSource, NetworkSource]:
    rel_a = Relation.from_keys(range(len(gaps_a)), source=SOURCE_A)
    rel_b = Relation.from_keys(range(100, 100 + len(gaps_b)), source=SOURCE_B)
    return (
        NetworkSource(rel_a, TraceArrival(gaps_a)),
        NetworkSource(rel_b, TraceArrival(gaps_b)),
    )


CHEAP = CostModel(cpu_tuple_cost=0.0, cpu_compare_cost=0.0, cpu_result_cost=0.0)


def test_tuples_delivered_in_global_arrival_order():
    # A arrives at 0.1 and 0.4; B at 0.2 and 0.4 (A wins exact ties).
    src_a, src_b = sources_from_traces([0.1, 0.3], [0.2, 0.2])
    op = RecordingOperator()
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=10.0)
    sources_seen = [t.source for _, t in op.tuples]
    assert sources_seen == [SOURCE_A, SOURCE_B, SOURCE_A, SOURCE_B]


def test_clock_synchronises_to_arrivals_when_processing_is_fast():
    src_a, src_b = sources_from_traces([1.0], [2.0])
    op = RecordingOperator()
    result = run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=10.0)
    times = [time for time, _ in op.tuples]
    assert times == [1.0, 2.0]
    assert result.completed


def test_processing_backlog_drives_clock_past_arrivals():
    # Tuples arrive back-to-back but each costs 1 virtual second.
    slow = CostModel(cpu_tuple_cost=1.0, cpu_compare_cost=0.0, cpu_result_cost=0.0)
    src_a, src_b = sources_from_traces([0.01, 0.01, 0.01], [10.0])
    op = RecordingOperator()
    run_join(src_a, src_b, op, costs=slow, blocking_threshold=100.0)
    a_times = [time for time, t in op.tuples if t.source == SOURCE_A]
    # First tuple: arrives 0.01, processed by 1.01; the others queue up.
    assert a_times == pytest.approx([1.01, 2.01, 3.01])


def test_no_blocked_call_without_background_work():
    src_a, src_b = sources_from_traces([0.1, 5.0], [0.1, 5.0])
    op = RecordingOperator(background_work=False)
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=0.5)
    assert op.blocked_calls == []


def test_nan_blocking_threshold_rejected():
    src_a, src_b = sources_from_traces([0.1, 5.0], [0.1, 5.0])
    with pytest.raises(ConfigurationError):
        run_join(
            src_a, src_b, RecordingOperator(), blocking_threshold=float("nan")
        )


def test_infinite_blocking_threshold_never_blocks():
    src_a, src_b = sources_from_traces([0.1, 5.0], [0.1, 5.0])
    op = RecordingOperator(background_work=True)
    result = run_join(
        src_a, src_b, op, costs=CHEAP, blocking_threshold=float("inf")
    )
    assert result.completed
    assert op.blocked_calls == []
    assert len(op.tuples) == 4


def test_blocked_called_when_gap_exceeds_threshold():
    src_a, src_b = sources_from_traces([0.1, 5.0], [0.1, 5.0])
    op = RecordingOperator(background_work=True)
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=0.5)
    assert len(op.blocked_calls) >= 1
    start, deadline = op.blocked_calls[0]
    # Blocking declared one threshold after the last arrival (0.1+0.5).
    # The kernel hands the gap out in threshold-sized budget slices, so
    # the first deadline is one threshold later; an operator that does
    # no work is not offered further slices (the window cannot make
    # progress from an identical state).
    assert start == pytest.approx(0.6)
    assert deadline == pytest.approx(1.1)
    assert len(op.blocked_calls) == 1


def test_no_blocked_call_when_gap_is_below_threshold():
    src_a, src_b = sources_from_traces([0.1, 0.4], [0.1, 0.4])
    op = RecordingOperator(background_work=True)
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=0.5)
    assert op.blocked_calls == []


def test_one_silent_source_does_not_block_the_join():
    # Source B goes silent but A keeps arriving faster than the
    # threshold: both-blocked never happens.
    src_a, src_b = sources_from_traces([0.1] * 50, [0.1, 100.0])
    op = RecordingOperator(background_work=True)
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=0.5)
    # The only blocked window may open after A is exhausted (gap to
    # B's last arrival); no blocked call can start before A's last
    # arrival at t=5.0.
    for start, _ in op.blocked_calls:
        assert start >= 5.0


def test_finish_runs_after_both_sources_exhausted():
    src_a, src_b = sources_from_traces([0.5], [1.5])
    op = RecordingOperator()
    result = run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=10.0)
    assert op.finish_time == pytest.approx(1.5)
    assert result.completed
    assert op.finished


def test_background_work_respects_deadline():
    src_a, src_b = sources_from_traces([0.1, 10.0], [0.1, 10.0])
    op = RecordingOperator(background_work=True, work_step=0.25)
    run_join(src_a, src_b, op, costs=CHEAP, blocking_threshold=1.0)
    # The window opens at 1.1 and its budget slices tile the gap up to
    # the next arrival at 10.1: successive starts one threshold apart,
    # every deadline capped at the gap end, and no work past it.
    starts = [start for start, _ in op.blocked_calls]
    assert starts == pytest.approx([1.1 + i for i in range(9)])
    assert all(deadline <= 10.1 + 1e-9 for _, deadline in op.blocked_calls)
    assert op.blocked_calls[-1][1] == pytest.approx(10.1)
    assert op.tuples[-1][0] == pytest.approx(10.1)


class EmittingOperator(StreamingJoinOperator):
    """Emits a self-match for every arriving pair of equal keys."""

    name = "emitting"

    def __init__(self):
        super().__init__()
        self._seen: dict[int, Tuple] = {}

    def on_tuple(self, t: Tuple) -> None:
        other = self._seen.get(t.key)
        if other is not None and other.source != t.source:
            self.emit(t, other, "test")
        self._seen[t.key] = t

    def has_background_work(self) -> bool:
        return False

    def on_blocked(self, budget: WorkBudget) -> None:  # pragma: no cover
        pass

    def finish(self, budget: WorkBudget) -> None:
        self.mark_finished()


def test_stop_after_truncates_run():
    rel_a = Relation.from_keys([1, 2, 3, 4, 5], source=SOURCE_A)
    rel_b = Relation.from_keys([1, 2, 3, 4, 5], source=SOURCE_B)
    src_a = NetworkSource(rel_a, ConstantRate(10.0))
    src_b = NetworkSource(rel_b, ConstantRate(10.0))
    result = run_join(
        src_a, src_b, EmittingOperator(), costs=CHEAP, stop_after=2
    )
    assert result.count == 2
    assert not result.completed


def test_stop_after_validation():
    src_a, src_b = sources_from_traces([0.1], [0.1])
    with pytest.raises(ConfigurationError):
        JoinSimulation(src_a, src_b, RecordingOperator(), stop_after=0)


def test_blocking_threshold_validation():
    src_a, src_b = sources_from_traces([0.1], [0.1])
    with pytest.raises(ConfigurationError):
        JoinSimulation(src_a, src_b, RecordingOperator(), blocking_threshold=0.0)


def test_operator_cannot_be_bound_twice():
    src_a, src_b = sources_from_traces([0.1], [0.1])
    op = RecordingOperator()
    run_join(src_a, src_b, op, costs=CHEAP)
    src_a2, src_b2 = sources_from_traces([0.1], [0.1])
    with pytest.raises(ProtocolError):
        run_join(src_a2, src_b2, op, costs=CHEAP)


def test_unbound_operator_rejects_use():
    op = RecordingOperator()
    with pytest.raises(ProtocolError):
        _ = op.clock


def test_empty_sources_complete_immediately():
    src_a, src_b = sources_from_traces([], [])
    op = RecordingOperator()
    result = run_join(src_a, src_b, op, costs=CHEAP)
    assert result.completed
    assert result.count == 0
    assert op.finish_time == 0.0


def test_result_exposes_recorder_and_disk():
    src_a, src_b = sources_from_traces([0.1], [0.2])
    op = RecordingOperator()
    result = run_join(src_a, src_b, op, costs=CHEAP)
    assert result.recorder.count == 0
    assert result.disk.io_count == 0
    assert result.results == []
