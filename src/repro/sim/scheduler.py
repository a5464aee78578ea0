"""The event-driven simulation kernel.

One heap-ordered loop drives every simulation in this repository, and
one adapter drives it: :class:`~repro.pipeline.executor.PlanExecutor`
runs a join tree over any number of leaves, and a two-source
:class:`~repro.sim.engine.JoinSimulation` is its one-join plan.  The
kernel owns three behaviours:

* **arrival selection** — each registered stream keeps exactly one
  pending-arrival event on a binary heap keyed by
  ``(time, kind, index)``; picking the next event is O(log n) instead
  of a linear scan per delivery, and ties break by registration order,
  exactly like the old scans did;
* **blocked-window gating** — when the gap to the next event exceeds
  the blocking threshold ``T`` (Section 6.3) and some participant has
  background work, the gap is handed out in threshold-sized
  round-robin slices of :class:`~repro.sim.budget.WorkBudget` so no
  participant can starve the others.  With a single registered worker
  the slices tile the gap seamlessly, reproducing the single-budget
  behaviour of the old two-source loop exactly (work steps run iff the
  clock has not reached the gap end, under either formulation);
* **timed callbacks** — :meth:`EventScheduler.call_at` schedules a
  callback at an absolute virtual time, ordered *before* any arrival
  at the same instant.  The :class:`~repro.sim.broker.ResourceBroker`
  uses these to re-grant memory mid-run.  Timers pending after the
  last stream is exhausted are dropped: the cleanup phase runs in one
  protocol call, so there is nothing left to adapt.

On top of the per-event loop sits **run delivery**: streams registered
with a ``times`` hook (their pending arrival times as a float64 array)
may have maximal runs of consecutive arrivals extracted in exact heap
order and handed to the kernel's one run callback,
:attr:`EventScheduler.deliver_run`, in one call instead of one heap
pop/push round-trip per tuple.  A step takes this path only while the
callback is set and no ``stop_when`` predicate is armed; every other
step is the ordinary per-event pop/deliver/push, so early stops keep
single-result granularity.  A run is broken exactly where the
per-event loop would have done something other than deliver the next
such arrival:

* at an inter-arrival gap exceeding ``blocking_threshold`` (the next
  event *might* open a blocked window — only the live clock, after the
  run's processing costs, can tell);
* at any pending timer due at or before the next arrival (timers fire
  before arrivals at the same instant);
* at any arrival of a stream registered without ``times`` (stream
  interleaving among ``times`` streams is preserved inside the run, in
  ``(time, registration-index)`` heap order).

Run boundaries carry no simulation state — breaking a run early is
always safe, merely slower — so run and per-event steps are
observably identical (the equivalence suite pins this), and a run
step re-pushes every ``times`` stream, so the heap holds one entry per
live stream after every step in either mode: switching between them
mid-run is safe.

The kernel knows nothing about joins: streams are ``(peek, deliver)``
callable pairs, workers are ``(has_work, run)`` pairs, and the
adapter decides what delivering or working means.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.journal import SimulationJournal

#: Heap-kind priorities: timers fire before arrivals at the same instant
#: (a memory grant scheduled at ``t`` applies before the tuple due at
#: ``t`` is processed).
_KIND_TIMER = 0
_KIND_ARRIVAL = 1

#: Floor of the first run-extraction window, and its growth factor when
#: a window holds no exact cut (see ``_extract_run``).
_MIN_WINDOW = 1024
_WINDOW_GROWTH = 8

PeekFn = Callable[[], "float | None"]
DeliverFn = Callable[[], None]
#: Full pending arrival times of a stream (float64) plus the cursor of
#: the next delivery; the kernel reads (never consumes) this to
#: extract runs.
TimesFn = Callable[[], "tuple[np.ndarray, int]"]
#: Run delivery: one run as parallel arrays — int64 stream indices
#: and float64 arrival times, one entry per arrival, in exact heap
#: dispatch order.
RunDeliverFn = Callable[[np.ndarray, np.ndarray], None]
HasWorkFn = Callable[[], bool]
WorkFn = Callable[[WorkBudget], None]
StopFn = Callable[[], bool]
TimerFn = Callable[[], None]


@dataclass(slots=True)
class _Stream:
    """One registered arrival stream."""

    index: int
    peek: PeekFn
    deliver: DeliverFn
    #: Pending arrival times; set when the stream takes run delivery.
    times: TimesFn | None = None
    live: bool = False


@dataclass(slots=True)
class _Worker:
    """One registered background-work participant."""

    index: int
    has_work: HasWorkFn
    run: WorkFn


@dataclass(slots=True)
class EventScheduler:
    """Heap-based event loop over typed simulation events.

    Attributes:
        clock: The shared virtual clock the loop synchronises.
        blocking_threshold: Section 6.3's ``T`` — a gap longer than
            this (to the next event) counts as a blocked window.  Must
            be > 0 (NaN is rejected); ``inf`` means never blocked, so
            no window opens and no run is cut at a gap.
        stop_when: Optional early-stop predicate, checked before every
            event and woven into every budget handed to workers.
        journal: Optional structural-event timeline; the kernel records
            ``blocked-window`` entries under the ``engine`` actor, as
            the pre-kernel loops did.
        deliver_run: Optional run callback.  ``deliver_run(indices,
            times)`` receives one maximal run of arrivals of the
            streams registered with ``times``: parallel int64/float64
            arrays of each arrival's stream index and time, in exact
            heap dispatch order.  It must consume each arrival from
            its stream in that order and advance the clock to each
            arrival time before processing it (it may deliver fewer
            than offered; the kernel re-reads the streams afterwards).
            It is called only while ``stop_when`` is unset.  ``None``
            (the default) means per-event steps — the streaming APIs
            and service sessions clear it to keep single-arrival
            granularity.
        probe: Optional observer invoked after every dispatched event
            (timer, arrival, or batch).  Probes must be pure observers
            — they may read but never advance the clock, touch the
            disk, or mutate operator state — so an installed probe
            never changes a run's observable numbers.  The conformance
            layer (:mod:`repro.testing.checks`) hangs its per-step
            invariant checks here; ``None`` (the default) costs one
            predicate test per step.
    """

    clock: VirtualClock
    blocking_threshold: float
    stop_when: StopFn | None = None
    journal: SimulationJournal | None = None
    deliver_run: RunDeliverFn | None = None
    probe: TimerFn | None = None

    _streams: list[_Stream] = field(default_factory=list)
    # Streams registered with ``times`` and their hooks, in
    # registration order.
    _run_streams: list[tuple[_Stream, TimesFn]] = field(default_factory=list)
    _workers: list[_Worker] = field(default_factory=list)
    # Heap entries: (time, kind, index, payload).  The (time, kind,
    # index) prefix is unique, so payloads are never compared.
    _heap: list[tuple] = field(default_factory=list)
    _live_streams: int = 0
    _timer_seq: int = 0
    _dropped_timers: int = 0
    # Sequence numbers of pending keep-alive timers: while any remain,
    # the loop keeps dispatching even with zero live streams (reorder
    # buffers deliver arrivals from timers, not registered streams).
    _keepalive_seqs: set = field(default_factory=set)
    # First window of the next columnar run extraction: observed, not
    # tuned — twice the last extracted run's length.
    _run_window: int = field(default=_MIN_WINDOW, init=False)

    def __post_init__(self) -> None:
        # ``not > 0`` also rejects NaN, which would compare false
        # everywhere and silently disable blocked windows and gap cuts.
        if not self.blocking_threshold > 0:
            raise ConfigurationError(
                f"blocking_threshold must be > 0, got {self.blocking_threshold!r}"
            )

    # -- registration -------------------------------------------------------

    def add_stream(
        self,
        peek: PeekFn,
        deliver: DeliverFn,
        *,
        times: TimesFn | None = None,
    ) -> int:
        """Register an arrival stream.

        ``peek()`` returns the absolute time of the stream's next
        pending arrival (``None`` when exhausted); ``deliver()``
        consumes exactly one arrival.  Returns the stream's index;
        at equal arrival times, lower indices deliver first.

        A stream opts in to run delivery by passing a ``times`` hook
        exposing its full pending arrival times as a float64 array and
        the cursor of its next delivery; its arrivals are then
        dispatched in merged runs whenever :attr:`deliver_run` is set
        and no stop is armed.
        """
        stream = _Stream(
            index=len(self._streams), peek=peek, deliver=deliver, times=times
        )
        self._streams.append(stream)
        if times is not None:
            self._run_streams.append((stream, times))
        first = stream.peek()
        if first is not None:
            heapq.heappush(self._heap, (first, _KIND_ARRIVAL, stream.index, None))
            stream.live = True
            self._live_streams += 1
        return stream.index

    def add_worker(self, has_work: HasWorkFn, run: WorkFn) -> int:
        """Register a blocked-window participant.

        ``has_work()`` must be a cost-free check; ``run(budget)`` does
        background work until the budget expires.  Round-robin order
        follows registration order.
        """
        worker = _Worker(index=len(self._workers), has_work=has_work, run=run)
        self._workers.append(worker)
        return worker.index

    def call_at(
        self, time: float, callback: TimerFn, *, keep_alive: bool = False
    ) -> None:
        """Schedule ``callback`` at absolute virtual ``time``.

        A timer due at the same instant as an arrival fires first.  A
        timer in the past fires at the next dispatch without moving the
        clock backwards.  Timers still pending once every stream is
        exhausted are dropped (see :attr:`dropped_timers`) — unless
        scheduled with ``keep_alive=True``, which marks the timer as a
        *delivery participant*: the loop keeps dispatching while any
        keep-alive timer is pending, even with zero live streams.
        Reorder buffers (:class:`repro.net.source.ReorderBuffer`) use
        these for their punctuation releases, which stand in for the
        stream arrivals the kernel would otherwise be waiting on.
        """
        if time < 0:
            raise ConfigurationError(f"timer time must be >= 0, got {time!r}")
        heapq.heappush(self._heap, (float(time), _KIND_TIMER, self._timer_seq, callback))
        if keep_alive:
            self._keepalive_seqs.add(self._timer_seq)
        self._timer_seq += 1

    # -- introspection ------------------------------------------------------

    @property
    def stopped(self) -> bool:
        """Whether the early-stop predicate currently holds."""
        return self.stop_when is not None and self.stop_when()

    @property
    def dropped_timers(self) -> int:
        """Timers discarded because every stream had already drained."""
        return self._dropped_timers

    @property
    def next_event_time(self) -> float | None:
        """Virtual time of the next dispatchable event, or ``None``.

        ``None`` means the streaming phase is over: no live stream
        remains (ordinary pending timers alone cannot be dispatched —
        the next :meth:`step` drops them; pending *keep-alive* timers
        keep the phase open).  The time reported is where the next
        event *sits on the heap*; the clock may already be beyond it
        (a processing-bound run), in which case dispatch happens at
        ``clock.now``.  Multi-query sessions use
        ``max(clock.now, next_event_time)`` to interleave several
        schedulers in global virtual-time order.
        """
        if not self._heap or (
            self._live_streams == 0 and not self._keepalive_seqs
        ):
            return None
        return self._heap[0][0]

    def discard_pending(self) -> int:
        """Drop every pending timer without dispatching it.

        Called when a run is abandoned mid-stream (a cancelled query):
        pending broker grants and other timers will never fire, and
        pretending otherwise would hide the cancellation from replay.
        The drop is counted in :attr:`dropped_timers` and journaled, so
        a cancelled tenant's unfired timers stay observable.  Stream
        arrival entries are discarded silently — the sources themselves
        still hold the undelivered tuples.
        """
        dropped = sum(1 for entry in self._heap if entry[1] == _KIND_TIMER)
        if dropped:
            self._dropped_timers += dropped
            if self.journal is not None:
                self.journal.record("engine", "dropped-timers", count=dropped)
        self._heap.clear()
        self._keepalive_seqs.clear()
        self._live_streams = 0
        for stream in self._streams:
            stream.live = False
        return dropped

    def unbounded_budget(self) -> WorkBudget:
        """A cleanup-phase budget: no deadline, the loop's stop predicate."""
        return WorkBudget.unbounded(self.clock, stop_when=self.stop_when)

    # -- the loop -----------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next event, with any preceding blocked window.

        With :attr:`deliver_run` set and no stop armed, one step may
        deliver a whole run of arrivals (see module docstring); the run
        is exactly the sequence of events consecutive per-event steps
        would have dispatched, so observable behaviour is unchanged.

        Returns False when the streaming phase is over: the stop
        predicate fired, or no arrival remains (pending timers are then
        dropped — cleanup is the adapter's job).
        """
        if self.stopped:
            return False
        if self._live_streams == 0 and not self._keepalive_seqs:
            # Only timers can remain: exhausted streams are never
            # re-pushed, so a heap with no live stream holds no arrivals.
            if self._heap:
                self._dropped_timers += len(self._heap)
                if self.journal is not None:
                    self.journal.record(
                        "engine", "dropped-timers", count=len(self._heap)
                    )
                self._heap.clear()
            return False
        time, kind, index, payload = self._heap[0]
        gap_end = time
        blocked_from = self.clock.now + self.blocking_threshold
        if gap_end > blocked_from and self._any_background_work():
            self.clock.advance_to(blocked_from)
            if self.journal is not None:
                self.journal.record(
                    "engine", "blocked-window", until=round(gap_end, 6)
                )
            self._blocked_window(gap_end)
            if self.stopped:
                return False
        heapq.heappop(self._heap)
        self.clock.advance_to(time)
        if kind == _KIND_TIMER:
            self._keepalive_seqs.discard(index)
            payload()
            if self.probe is not None:
                self.probe()
            return True
        stream = self._streams[index]
        deliver_run = self.deliver_run
        if (
            deliver_run is not None
            and self.stop_when is None
            and stream.times is not None
        ):
            self._dispatch_run(deliver_run)
        else:
            stream.deliver()
            nxt = stream.peek()
            if nxt is None:
                stream.live = False
                self._live_streams -= 1
            else:
                heapq.heappush(self._heap, (nxt, _KIND_ARRIVAL, index, None))
        if self.probe is not None:
            self.probe()
        return True

    def run(self) -> bool:
        """Drain the whole streaming phase.

        Returns True when every stream delivered every arrival; False
        when the stop predicate ended the run early.
        """
        while self.step():
            pass
        return not self.stopped

    # -- run delivery -------------------------------------------------------

    def _dispatch_run(self, deliver_run: RunDeliverFn) -> None:
        """Deliver the maximal run starting at the popped head.

        The head entry (an arrival of a ``times`` stream) is already
        popped and the clock already sits at its arrival time; this
        extracts how far the run extends, hands it to ``deliver_run``
        in one call, then re-reads every ``times`` stream to restore
        the one-pending-entry-per-live-stream heap invariant.
        """
        members = self._run_streams
        heap = self._heap
        if len(members) > 1 and heap:
            # Other members' pending entries are superseded by the run
            # extraction; purge them so the heap top is the true bound.
            streams = self._streams
            kept = [
                e for e in heap
                if e[1] != _KIND_ARRIVAL or streams[e[2]].times is None
            ]
            if len(kept) != len(heap):
                heap[:] = kept
                heapq.heapify(heap)
        if heap:
            # The run may not reach the next other event: a timer (or
            # an arrival of a stream without ``times``) due inside it
            # must fire in order.  At equal times a timer always wins;
            # a competing arrival wins unless the member's registration
            # index is lower.
            bound = heap[0]
            bound_time = bound[0]
            bound_index = bound[2] if bound[1] == _KIND_ARRIVAL else -1
        else:
            bound_time = float("inf")
            bound_index = -1
        deliver_run(*self._extract_run(bound_time, bound_index))
        for member, _ in members:
            nxt = member.peek()
            if nxt is None:
                if member.live:
                    member.live = False
                    self._live_streams -= 1
            else:
                if not member.live:
                    member.live = True
                    self._live_streams += 1
                heapq.heappush(heap, (nxt, _KIND_ARRIVAL, member.index, None))

    def _extract_run(
        self, bound_time: float, bound_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The maximal deliverable run, merged over growing windows.

        Returns ``(indices, times)`` — int64 stream indices and float64
        arrival times — in exact heap order, ``(time, registration
        index)``, starting from the already-popped head.  The run ends
        at the first inter-arrival gap wider than the blocking
        threshold, or at the first event that would lose a heap race
        against ``(bound_time, bound_index)`` (the post-purge heap top;
        ``bound_index`` is -1 for timers, which win every tie).

        Only a window of each member's pending arrivals is merged, so
        the work tracks the run delivered, not the remaining schedule.
        The first window is twice the previous run's length (at least
        :data:`_MIN_WINDOW`); a window without an exact cut grows
        eightfold until one is found or every window reaches the end
        of its schedule.
        """
        bounded = bound_time != float("inf")
        cursors: list[tuple[np.ndarray, int]] = []
        for member, times in self._run_streams:
            arr, pos = times()
            pending = arr[pos:]
            if bounded and pending.size:
                # Arrivals beyond the bound can never join the run;
                # trimming keeps the merge proportional to the
                # deliverable window, not the remaining schedule.
                # Equal-time arrivals stay — the tie rules below
                # decide whether they make the run.
                pending = pending[: np.searchsorted(pending, bound_time, side="right")]
            if pending.size:
                cursors.append((pending, member.index))
        window = self._run_window
        while True:
            extracted = self._cut_window(cursors, window, bound_time, bound_index)
            if extracted is not None:
                self._run_window = max(_MIN_WINDOW, 2 * extracted[1].size)
                return extracted
            window *= _WINDOW_GROWTH

    def _cut_window(
        self,
        cursors: list[tuple[np.ndarray, int]],
        window: int,
        bound_time: float,
        bound_index: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The run within the first ``window`` arrivals of each cursor.

        Returns ``None`` when the windows cannot decide the run: its
        cut (or its end) may lie at or beyond the last time of a
        window that stops short of its schedule, where arrivals not
        yet merged could still sort in.
        """
        # Unmerged arrivals are >= their window's last time, so every
        # merged element strictly below ``limit`` sits exactly where
        # the full merge would put it.
        limit = float("inf")
        windows: list[np.ndarray] = []
        for pending, _ in cursors:
            if pending.size > window:
                pending = pending[:window]
                limit = min(limit, pending[-1])
            windows.append(pending)
        merged_indices: np.ndarray | None = None
        if len(windows) == 1:
            merged = windows[0]
        else:
            # Cursors sit in registration order, so a stable sort by
            # time over their concatenation is exact heap order.
            concatenated = np.concatenate(windows)
            order = np.argsort(concatenated, kind="stable")
            merged = concatenated[order]
            merged_indices = np.repeat(
                np.array([index for _, index in cursors], dtype=np.int64),
                [w.size for w in windows],
            )[order]
        # The per-event loop's float expression — t > prev + threshold
        # — so rounding behaves identically element-wise.
        stop = merged[1:] > merged[:-1] + self.blocking_threshold
        if bound_time != float("inf"):
            tail = merged[1:]
            if merged_indices is None:
                # t > bound or (t == bound and not tie_ok) collapses
                # to >= when ties lose and > when ties win.
                tie_ok = cursors[0][1] < bound_index
                stop |= (tail > bound_time) if tie_ok else (tail >= bound_time)
            else:
                tie_ok_rows = merged_indices[1:] < bound_index
                stop |= (tail > bound_time) | ((tail == bound_time) & ~tie_ok_rows)
        hits = np.flatnonzero(stop)
        cut = int(hits[0]) + 1 if hits.size else merged.size
        if limit != float("inf") and not (cut < merged.size and merged[cut] < limit):
            return None
        if merged_indices is None:
            return np.full(cut, cursors[0][1], dtype=np.int64), merged[:cut]
        return merged_indices[:cut], merged[:cut]

    # -- blocked windows ----------------------------------------------------

    def _any_background_work(self) -> bool:
        return any(worker.has_work() for worker in self._workers)

    def _blocked_window(self, gap_end: float) -> None:
        """Share a silent window between workers, round-robin slices.

        Each worker with pending work gets a threshold-sized
        :class:`WorkBudget` slice in turn until the window closes, the
        stop predicate fires, or nobody has work left.  A full round
        that fails to advance the clock ends the window early: identical
        state would yield identical (non-)progress forever.
        """
        while self.clock.now < gap_end and not self.stopped:
            active = [worker for worker in self._workers if worker.has_work()]
            if not active:
                return
            round_start = self.clock.now
            for worker in active:
                if self.clock.now >= gap_end or self.stopped:
                    return
                deadline = min(gap_end, self.clock.now + self.blocking_threshold)
                worker.run(
                    WorkBudget(
                        clock=self.clock, deadline=deadline, stop_when=self.stop_when
                    )
                )
            if self.clock.now == round_start:
                return
