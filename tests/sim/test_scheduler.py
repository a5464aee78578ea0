"""Unit tests for the event kernel itself.

The engine and executor suites cover the kernel through their adapters;
these tests exercise :class:`EventScheduler` directly with scripted
streams, workers, and timers, pinning down the contracts the adapters
rely on: heap ordering, tie-breaks, timer-before-arrival dispatch,
blocked-window slicing, the no-progress guard, and timer dropping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock
from repro.sim.journal import SimulationJournal
from repro.sim.scheduler import EventScheduler


def make_stream(times: list[float], log: list, tag: str):
    """A scripted stream delivering at the given absolute times."""
    queue = list(times)

    def peek():
        return queue[0] if queue else None

    def deliver():
        log.append((tag, queue.pop(0)))

    return peek, deliver


def make_scheduler(threshold: float = 1.0, stop_when=None, journal_clock=None):
    clock = VirtualClock()
    journal = SimulationJournal(clock) if journal_clock else None
    return (
        EventScheduler(
            clock=clock,
            blocking_threshold=threshold,
            stop_when=stop_when,
            journal=journal,
        ),
        clock,
    )


def test_threshold_must_be_positive():
    clock = VirtualClock()
    with pytest.raises(ConfigurationError):
        EventScheduler(clock=clock, blocking_threshold=0.0)


def test_nan_threshold_rejected():
    with pytest.raises(ConfigurationError):
        EventScheduler(clock=VirtualClock(), blocking_threshold=float("nan"))


def test_infinite_threshold_never_blocks():
    sched, _ = make_scheduler(threshold=float("inf"))
    log: list = []
    windows: list = []
    sched.add_worker(lambda: True, windows.append)
    sched.add_stream(*make_stream([0.0, 1e6, 2e6], log, "a"))
    assert sched.run()
    assert [at for _, at in log] == [0.0, 1e6, 2e6]
    assert windows == []


def test_arrivals_merge_in_time_order():
    sched, _ = make_scheduler()
    log: list = []
    sched.add_stream(*make_stream([0.1, 0.4], log, "a"))
    sched.add_stream(*make_stream([0.2, 0.3], log, "b"))
    assert sched.run()
    assert log == [("a", 0.1), ("b", 0.2), ("b", 0.3), ("a", 0.4)]


def test_equal_arrival_times_break_by_registration_order():
    sched, _ = make_scheduler()
    log: list = []
    sched.add_stream(*make_stream([0.5, 0.5], log, "first"))
    sched.add_stream(*make_stream([0.5], log, "second"))
    assert sched.run()
    assert [tag for tag, _ in log] == ["first", "first", "second"]


def test_clock_synchronises_to_each_arrival():
    sched, clock = make_scheduler()
    seen: list[float] = []
    queue = [0.25, 0.75]
    sched.add_stream(
        lambda: queue[0] if queue else None,
        lambda: (queue.pop(0), seen.append(clock.now)),
    )
    assert sched.run()
    assert seen == [0.25, 0.75]


def test_timer_fires_before_arrival_at_same_instant():
    sched, _ = make_scheduler()
    order: list[str] = []
    queue = [0.5]
    sched.add_stream(
        lambda: queue[0] if queue else None,
        lambda: (queue.pop(0), order.append("arrival")),
    )
    sched.call_at(0.5, lambda: order.append("timer"))
    assert sched.run()
    assert order == ["timer", "arrival"]


def test_timers_preserve_scheduling_order_at_same_instant():
    sched, _ = make_scheduler()
    order: list[int] = []
    queue = [1.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    sched.call_at(0.5, lambda: order.append(1))
    sched.call_at(0.5, lambda: order.append(2))
    assert sched.run()
    assert order == [1, 2]


def test_past_timer_fires_without_moving_clock_backwards():
    sched, clock = make_scheduler()
    fired: list[float] = []
    queue = [2.0, 3.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    # Scheduled "at 0.1" but only enters the heap mid-run, after the
    # clock passed it: it fires at the next dispatch, clock unmoved.
    sched.step()  # delivers the 2.0 arrival
    assert clock.now == 2.0
    sched.call_at(0.1, lambda: fired.append(clock.now))
    assert sched.run()
    assert fired == [2.0]


def test_negative_timer_rejected():
    sched, _ = make_scheduler()
    with pytest.raises(ConfigurationError):
        sched.call_at(-1.0, lambda: None)


def test_timers_after_streams_drain_are_dropped():
    sched, _ = make_scheduler()
    queue = [0.1]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    sched.call_at(5.0, lambda: pytest.fail("dropped timer must not fire"))
    sched.call_at(9.0, lambda: pytest.fail("dropped timer must not fire"))
    assert sched.run()
    assert sched.dropped_timers == 2


def test_empty_scheduler_completes_immediately():
    sched, clock = make_scheduler()
    assert sched.run()
    assert clock.now == 0.0


def test_blocked_window_skipped_without_background_work():
    sched, _ = make_scheduler(threshold=0.5)
    queue = [0.1, 5.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    sched.add_worker(lambda: False, lambda budget: pytest.fail("no work to run"))
    assert sched.run()


def test_blocked_window_slices_tile_the_gap():
    sched, clock = make_scheduler(threshold=1.0)
    queue = [0.0, 10.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    slices: list[tuple[float, float]] = []

    def work(budget):
        slices.append((clock.now, budget.deadline))
        while not budget.expired():
            clock.advance(0.25)

    sched.add_worker(lambda: True, work)
    assert sched.run()
    # Window opens one threshold after the last arrival and its slices
    # tile the gap: starts one threshold apart, deadlines capped at the
    # next arrival.
    assert [start for start, _ in slices] == pytest.approx(
        [1.0 + i for i in range(9)]
    )
    assert all(deadline <= 10.0 + 1e-9 for _, deadline in slices)
    assert slices[-1][1] == pytest.approx(10.0)


def test_blocked_window_round_robins_workers():
    sched, clock = make_scheduler(threshold=1.0)
    queue = [0.0, 5.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    turns: list[str] = []

    def worker(tag):
        def work(budget):
            turns.append(tag)
            while not budget.expired():
                clock.advance(0.5)

        return work

    sched.add_worker(lambda: True, worker("x"))
    sched.add_worker(lambda: True, worker("y"))
    assert sched.run()
    assert turns[:4] == ["x", "y", "x", "y"]


def test_no_progress_round_ends_window():
    sched, _ = make_scheduler(threshold=1.0)
    queue = [0.0, 50.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    calls: list[float] = []
    # has_work lies: the worker never advances the clock, so the window
    # must end after one fruitless round instead of spinning forever.
    sched.add_worker(lambda: True, lambda budget: calls.append(budget.deadline))
    assert sched.run()
    assert len(calls) == 1


def test_stop_when_ends_run_early():
    delivered: list[float] = []
    queue = [0.1, 0.2, 0.3, 0.4]
    clock = VirtualClock()
    sched = EventScheduler(
        clock=clock,
        blocking_threshold=1.0,
        stop_when=lambda: len(delivered) >= 2,
    )
    sched.add_stream(
        lambda: queue[0] if queue else None, lambda: delivered.append(queue.pop(0))
    )
    assert not sched.run()
    assert sched.stopped
    assert delivered == [0.1, 0.2]


def test_journal_records_blocked_windows():
    clock = VirtualClock()
    journal = SimulationJournal(clock)
    sched = EventScheduler(clock=clock, blocking_threshold=1.0, journal=journal)
    queue = [0.0, 4.0]
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))

    def work(budget):
        while not budget.expired():
            clock.advance(0.5)

    sched.add_worker(lambda: True, work)
    assert sched.run()
    windows = journal.of_kind("blocked-window")
    assert len(windows) == 1
    assert windows[0].actor == "engine"
    assert windows[0].detail["until"] == pytest.approx(4.0)


def make_batched_streams(sched, times_by_tag: dict[str, list[float]], log: list):
    """Register the given streams for run delivery.

    The run callback consumes each offered arrival from its queue
    (asserting the offered time matches the queue head) and appends
    ``(tag, time)`` to ``log``; returns the list of delivered runs.
    """
    queues = {tag: list(times) for tag, times in times_by_tag.items()}
    index_to_tag: dict[int, str] = {}
    batches: list[list[tuple[str, float]]] = []

    def deliver_run(indices, times):
        assert indices.dtype == np.int64 and times.dtype == np.float64
        batch = []
        for index, at in zip(indices.tolist(), times.tolist()):
            tag = index_to_tag[index]
            assert queues[tag][0] == at
            queues[tag].pop(0)
            log.append((tag, at))
            batch.append((tag, at))
        batches.append(batch)

    sched.deliver_run = deliver_run
    for tag, schedule in times_by_tag.items():
        queue = queues[tag]
        index = sched.add_stream(
            lambda queue=queue: queue[0] if queue else None,
            lambda: pytest.fail("run stream delivered per-event"),
            times=lambda queue=queue, schedule=np.asarray(schedule): (
                schedule,
                len(schedule) - len(queue),
            ),
        )
        index_to_tag[index] = tag
    return batches


def test_batch_group_merges_streams_in_heap_order():
    sched, _ = make_scheduler()
    log: list = []
    # Exact ties alternate by registration order, like the plain heap.
    batches = make_batched_streams(
        sched, {"a": [0.1, 0.2, 0.3], "b": [0.1, 0.25]}, log
    )
    assert sched.run()
    assert log == [
        ("a", 0.1), ("b", 0.1), ("a", 0.2), ("b", 0.25), ("a", 0.3),
    ]
    # No breaks apply, so the whole run arrives as one batch.
    assert len(batches) == 1


def test_batch_breaks_at_blocking_gap():
    sched, _ = make_scheduler(threshold=1.0)
    log: list = []
    batches = make_batched_streams(sched, {"a": [0.1, 0.2, 5.0, 5.1]}, log)
    assert sched.run()
    assert [len(b) for b in batches] == [2, 2]
    assert log == [("a", 0.1), ("a", 0.2), ("a", 5.0), ("a", 5.1)]


def test_batch_breaks_at_pending_timer():
    sched, _ = make_scheduler()
    log: list = []
    batches = make_batched_streams(sched, {"a": [0.1, 0.2, 0.3]}, log)
    sched.call_at(0.25, lambda: log.append(("timer", 0.25)))
    assert sched.run()
    # The timer due inside the run must fire in order, splitting it.
    assert log == [("a", 0.1), ("a", 0.2), ("timer", 0.25), ("a", 0.3)]
    assert [len(b) for b in batches] == [2, 1]


def test_timer_at_same_instant_breaks_batch_and_fires_first():
    sched, _ = make_scheduler()
    log: list = []
    batches = make_batched_streams(sched, {"a": [0.1, 0.3]}, log)
    sched.call_at(0.3, lambda: log.append(("timer", 0.3)))
    assert sched.run()
    assert log == [("a", 0.1), ("timer", 0.3), ("a", 0.3)]
    assert [len(b) for b in batches] == [1, 1]


def test_outside_stream_breaks_batch():
    sched, _ = make_scheduler()
    log: list = []
    batches = make_batched_streams(sched, {"a": [0.1, 0.3]}, log)
    queue = [0.2]
    sched.add_stream(
        lambda: queue[0] if queue else None,
        lambda: log.append(("outside", queue.pop(0))),
    )
    assert sched.run()
    assert log == [("a", 0.1), ("outside", 0.2), ("a", 0.3)]
    assert [len(b) for b in batches] == [1, 1]


def test_batching_disabled_delivers_per_event():
    sched, _ = make_scheduler()
    assert sched.deliver_run is None
    log: list = []
    queue = [0.1, 0.2]
    sched.add_stream(
        lambda: queue[0] if queue else None,
        lambda: log.append(queue.pop(0)),
        times=lambda: (np.array([0.1, 0.2]), 2 - len(queue)),
    )
    steps = 0
    while sched.step():
        steps += 1
    assert log == [0.1, 0.2]
    assert steps == 2


def test_batch_deliverer_may_stop_short():
    # A callback may consume only part of the offered run; the kernel
    # re-reads the streams and offers the rest as the next run.
    schedule = np.array([0.1, 0.2, 0.3, 0.4])
    queue = schedule.tolist()
    offered: list[list[float]] = []
    clock = VirtualClock()
    sched = EventScheduler(clock=clock, blocking_threshold=1.0)

    def deliver_run(indices, times):
        offered.append(times.tolist())
        for at in times.tolist()[:2]:
            assert queue[0] == at
            clock.advance_to(at)
            queue.pop(0)

    sched.deliver_run = deliver_run
    sched.add_stream(
        lambda: queue[0] if queue else None,
        lambda: pytest.fail("run stream delivered per-event"),
        times=lambda: (schedule, len(schedule) - len(queue)),
    )
    assert sched.run()
    assert offered == [[0.1, 0.2, 0.3, 0.4], [0.3, 0.4]]
    assert queue == []


# Four runs at threshold 1.0: five arrivals, three, two of "a" alone
# (so "b" keeps a pending arrival the run never touched), then one.
_INTERLEAVED = {"a": [0.1, 0.3, 0.5, 2.0, 2.1, 4.0, 4.2], "b": [0.2, 0.4, 2.05, 6.0]}


def make_logged_streams(sched, clock, log: list) -> None:
    """Register ``_INTERLEAVED`` with per-event and run hooks.

    Both paths append ``(tag, time, clock.now)`` per arrival to ``log``,
    so a run step and the per-event steps it stands for log the same.
    """
    queues = {tag: list(times) for tag, times in _INTERLEAVED.items()}
    tags: list[str] = []

    def take(tag: str) -> None:
        log.append((tag, queues[tag].pop(0), clock.now))

    def deliver_run(indices, times):
        for index, at in zip(indices.tolist(), times.tolist()):
            clock.advance_to(at)
            take(tags[index])

    sched.deliver_run = deliver_run
    for tag, schedule in _INTERLEAVED.items():
        queue = queues[tag]
        tags.append(tag)
        sched.add_stream(
            lambda queue=queue: queue[0] if queue else None,
            lambda tag=tag: take(tag),
            times=lambda queue=queue, arr=np.asarray(schedule): (
                arr,
                len(arr) - len(queue),
            ),
        )


@pytest.mark.parametrize("stop_at", [1, 3, 4])
def test_armed_stop_never_calls_deliver_run(stop_at):
    # With stop_when armed the kernel never calls the run callback:
    # each arrival is one per-event step, and the predicate is checked
    # before each, so the stop lands right after arrival ``stop_at``.
    log: list = []
    clock = VirtualClock()
    sched = EventScheduler(
        clock=clock, blocking_threshold=1.0, stop_when=lambda: len(log) >= stop_at
    )
    make_logged_streams(sched, clock, log)
    sched.deliver_run = lambda indices, times: pytest.fail(
        "run callback called with a stop armed"
    )
    steps = 0
    while sched.step():
        steps += 1
    assert steps == stop_at
    assert sched.stopped
    expected = [("a", 0.1), ("b", 0.2), ("a", 0.3), ("b", 0.4), ("a", 0.5)]
    assert log == [(tag, at, at) for tag, at in expected[:stop_at]]


@pytest.mark.parametrize("switch", ["arm-stop", "clear-callback"])
@pytest.mark.parametrize("after", [1, 2, 3])
def test_switching_to_per_event_mid_run_keeps_delivery_log(switch, after):
    # Every step leaves one heap entry per live stream, so turning run
    # delivery off between steps — by arming a stop that never fires,
    # or by clearing the callback — changes nothing observable.
    reference: list = []
    clock = VirtualClock()
    sched = EventScheduler(clock=clock, blocking_threshold=1.0)
    make_logged_streams(sched, clock, reference)
    sched.deliver_run = None
    assert sched.run()

    log: list = []
    clock = VirtualClock()
    sched = EventScheduler(clock=clock, blocking_threshold=1.0)
    make_logged_streams(sched, clock, log)
    for _ in range(after):
        assert sched.step()
    batched = len(log)
    assert batched == {1: 5, 2: 8, 3: 10}[after]  # whole runs per step
    if switch == "arm-stop":
        sched.stop_when = lambda: False
    else:
        sched.deliver_run = None
    steps = 0
    while sched.step():
        steps += 1
    assert log == reference
    assert steps == len(reference) - batched  # one arrival per step
    assert not sched.stopped


def test_unbounded_budget_carries_stop_predicate():
    stopped = [False]
    sched, _ = make_scheduler(stop_when=lambda: stopped[0])
    budget = sched.unbounded_budget()
    assert budget.deadline is None
    assert not budget.expired()
    stopped[0] = True
    assert budget.expired()


# -- keep-alive timers -------------------------------------------------------


def test_keepalive_timer_fires_after_streams_drain():
    """A keep-alive timer is a delivery participant: it holds the run
    open past stream exhaustion instead of being dropped."""
    sched, clock = make_scheduler()
    queue = [0.1]
    fired: list[float] = []
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    sched.call_at(5.0, lambda: fired.append(clock.now), keep_alive=True)
    assert sched.run()
    assert fired == [5.0]
    assert clock.now == 5.0
    assert sched.dropped_timers == 0


def test_keepalive_timer_can_rearm_itself():
    sched, clock = make_scheduler()
    fired: list[float] = []

    def tick():
        fired.append(clock.now)
        if len(fired) < 3:
            sched.call_at(clock.now + 1.0, tick, keep_alive=True)

    sched.call_at(1.0, tick, keep_alive=True)
    assert sched.run()
    assert fired == [1.0, 2.0, 3.0]


def test_plain_timers_still_dropped_alongside_keepalive():
    """Only the keep-alive timer holds the run open; ordinary timers
    past the drain point are dropped exactly as before."""
    sched, clock = make_scheduler()
    queue = [0.1]
    fired: list[float] = []
    sched.add_stream(lambda: queue[0] if queue else None, lambda: queue.pop(0))
    sched.call_at(2.0, lambda: fired.append(clock.now), keep_alive=True)
    sched.call_at(9.0, lambda: pytest.fail("plain timer must drop"))
    assert sched.run()
    assert fired == [2.0]
    assert sched.dropped_timers == 1


def test_next_event_time_sees_keepalive_timer():
    sched, _ = make_scheduler()
    assert sched.next_event_time is None
    sched.call_at(4.0, lambda: None, keep_alive=True)
    assert sched.next_event_time == 4.0


def test_plain_timer_alone_does_not_hold_run_open():
    sched, _ = make_scheduler()
    sched.call_at(4.0, lambda: pytest.fail("must not fire"))
    assert sched.next_event_time is None
    assert sched.run()
    assert sched.dropped_timers == 1


def test_discard_pending_clears_keepalive_timers():
    sched, _ = make_scheduler()
    sched.call_at(4.0, lambda: pytest.fail("discarded timer fired"), keep_alive=True)
    sched.discard_pending()
    assert sched.next_event_time is None
    assert sched.run()
