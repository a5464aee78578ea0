"""The two-source join simulation, as an adapter on the event kernel.

:func:`run_join` reproduces the measurement setup of the paper's
Section 6: two sources deliver tuples at virtual instants drawn from
their arrival processes; the operator processes each tuple (charging
CPU and any flush I/O to the shared clock); and whenever *both* sources
go silent for longer than the blocking threshold ``T``, the operator is
given the gap for background work (HMJ's and PMJ's merging, XJoin's
reactive stage).  After both inputs end, ``finish`` runs the cleanup
phase to completion.

The loop itself — arrival selection, blocked-window gating, timed
events — lives in :class:`~repro.sim.scheduler.EventScheduler` and is
shared with the multi-join :class:`~repro.pipeline.executor.PlanExecutor`;
this module only wires one operator and two sources into it.  The
resulting system is a single-server queue: if tuples arrive faster
than the operator can process them, the clock is driven by processing
time; if the network is the bottleneck, the clock synchronises to
arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.columnar import ColumnBatch
from repro.errors import ConfigurationError
from repro.joins.base import JoinRuntime, StreamingJoinOperator
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import DisorderedSource, NetworkSource, ReorderBuffer
from repro.sim.broker import ResourceBroker
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import SimulationJournal
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A


@dataclass(slots=True)
class SimulationResult:
    """Everything a finished (or early-stopped) run exposes.

    Attributes:
        recorder: Per-result metrics (and retained results, if kept).
        clock: The final virtual clock.
        disk: The disk with its cumulative I/O counters.
        operator: The operator, with whatever state it retains.
        completed: False when the run stopped early via ``stop_after``.
    """

    recorder: MetricsRecorder
    clock: VirtualClock
    disk: SimulatedDisk
    operator: StreamingJoinOperator
    completed: bool
    journal: SimulationJournal | None = None

    @property
    def results(self):
        """Retained join results (empty if ``keep_results`` was False)."""
        return self.recorder.results

    @property
    def count(self) -> int:
        """Number of results produced."""
        return self.recorder.count


class JoinSimulation:
    """A configured, steppable join simulation.

    Most callers should use :func:`run_join`; this class exists for
    tests and examples that want to inspect state mid-run.
    """

    def __init__(
        self,
        source_a: "NetworkSource | DisorderedSource",
        source_b: "NetworkSource | DisorderedSource",
        operator: StreamingJoinOperator,
        costs: CostModel | None = None,
        blocking_threshold: float = 1.0,
        keep_results: bool = True,
        stop_after: int | None = None,
        spill_dir: str | None = None,
        journal: bool = False,
        broker: ResourceBroker | None = None,
        batch_delivery: bool = True,
        checks=None,
    ) -> None:
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError(f"stop_after must be >= 1, got {stop_after!r}")
        self._operator = operator
        self._costs = costs or CostModel()
        self._stop_after = stop_after
        self._keep_results = keep_results
        if source_a.source_label == source_b.source_label:
            # Operators side each tuple by its label: two same-labelled
            # inputs would silently join nothing.
            raise ConfigurationError(
                "source_a and source_b carry the same relation label "
                f"{source_a.source_label!r}; one join needs one A and one B input"
            )

        self.clock = VirtualClock()
        if spill_dir is None:
            self.disk = SimulatedDisk(self.clock, self._costs)
        else:
            # Imported lazily: the file-backed disk is optional and
            # pulls in the serialization machinery.
            from repro.storage.filedisk import FileBackedDisk

            self.disk = FileBackedDisk(self.clock, self._costs, spill_dir)
        self.recorder = MetricsRecorder(self.clock, self.disk, keep_results=keep_results)
        self.journal = SimulationJournal(self.clock) if journal else None
        operator.bind(
            JoinRuntime(
                clock=self.clock,
                disk=self.disk,
                costs=self._costs,
                recorder=self.recorder,
                journal=self.journal,
            )
        )
        self.scheduler = EventScheduler(
            clock=self.clock,
            blocking_threshold=float(blocking_threshold),
            # Only arm the early-stop predicate when an early stop is
            # actually configured: an armed predicate forces the merge
            # machinery into per-result synchronous emission (the
            # predicate may read the live result count), which the
            # batched columnar path otherwise avoids.
            stop_when=(
                self._stop_reached if stop_after is not None else None
            ),
            journal=self.journal,
        )
        self._source_a = source_a
        self._source_b = source_b
        group = self.scheduler.add_batch_group(self._deliver_batch)
        # A disordered source is not a kernel stream: its tuples reach
        # the operator through a reorder buffer's punctuation timers
        # (event order, instants e_i + B).  Its stream index is the
        # sentinel -1 so batch dispatch never attributes a run
        # position to it.
        self._buffers: list[ReorderBuffer] = []
        self._stream_a = self._register_source(source_a, group)
        self._stream_b = self._register_source(source_b, group)
        self.scheduler.batching = bool(batch_delivery)
        self.scheduler.add_worker(operator.has_background_work, operator.on_blocked)
        if broker is not None:
            broker.bind(operator)
            broker.install(self.scheduler)
        self._checks = None
        if checks:
            # Imported lazily: unchecked runs never touch the
            # conformance layer.
            from repro.testing.checks import arrival_map, coerce_checks

            self._checks = coerce_checks(checks)
            self._checks.watch_recorder(
                self.recorder,
                operator.name,
                arrivals=arrival_map(source_a, source_b),
            )
            self._checks.watch_kernel(
                self.scheduler, self.clock, [(operator.name, operator)]
            )

    def _register_source(self, src, group: int) -> int:
        """Wire one source into the kernel; returns its stream index.

        In-order sources register as batched streams.  Disordered
        sources install a :class:`ReorderBuffer` instead and return the
        sentinel index -1 (their releases are keep-alive timer events,
        never group-run positions).
        """
        if isinstance(src, DisorderedSource):
            buffer = ReorderBuffer(src, self._operator.on_tuple)
            buffer.install(self.scheduler)
            self._buffers.append(buffer)
            return -1
        return self.scheduler.add_stream(
            src.peek_time,
            self._deliver_from(src),
            times=src.pending_times_array,
            group=group,
        )

    @property
    def reorder_buffers(self) -> list[ReorderBuffer]:
        """The installed reorder buffers (empty for in-order runs)."""
        return self._buffers

    def _deliver_from(self, src: NetworkSource):
        def deliver() -> None:
            _, t = src.pop()
            self._operator.on_tuple(t)

        return deliver

    def _deliver_batch(self, indices: np.ndarray, times: np.ndarray) -> None:
        """Pop one merged run from both sources; hand it over as columns.

        The kernel calls this only while no early stop is armed; it
        replays runs through :meth:`_deliver_from` otherwise.
        ``indices`` holds each run position's stream index.  A row's
        side comes from its source's relation label — exactly what
        per-event delivery's ``Tuple.source`` carries.  Single-source
        runs are zero-copy slices; mixed runs scatter the two sources'
        column slices into run order.
        """
        src_a = self._source_a
        src_b = self._source_b
        from_a = indices == self._stream_a
        n = len(from_a)
        count_a = int(np.count_nonzero(from_a))
        if count_a == n:
            _, keys, tids, payloads = src_a.pop_batch_columns(n)
        elif count_a == 0:
            _, keys, tids, payloads = src_b.pop_batch_columns(n)
        else:
            _, keys_a, tids_a, pays_a = src_a.pop_batch_columns(count_a)
            _, keys_b, tids_b, pays_b = src_b.pop_batch_columns(n - count_a)
            from_b = ~from_a
            keys = np.empty(n, dtype=np.int64)
            keys[from_a], keys[from_b] = keys_a, keys_b
            tids = np.empty(n, dtype=np.int64)
            tids[from_a], tids[from_b] = tids_a, tids_b
            payloads = None
            if pays_a is not None or pays_b is not None:
                next_a = iter(pays_a or [None] * count_a).__next__
                next_b = iter(pays_b or [None] * (n - count_a)).__next__
                payloads = [next_a() if f else next_b() for f in from_a.tolist()]
        is_a = np.where(
            from_a, src_a.source_label == SOURCE_A, src_b.source_label == SOURCE_A
        )
        self._operator.on_column_batch(
            ColumnBatch(keys=keys, tids=tids, is_a=is_a, times=times, payloads=payloads)
        )

    def _stop_reached(self) -> bool:
        return self._stop_after is not None and self.recorder.count >= self._stop_after

    def _finish(self) -> None:
        if self.journal is not None:
            self.journal.record("engine", "finish")
        self._operator.finish(self.scheduler.unbounded_budget())

    def _finalize_checks(self, completed: bool) -> None:
        if self._checks is not None:
            self._checks.finalize(
                [(self._operator.name, self._operator)], self.clock, completed
            )

    # -- the uniform query-driver surface (see repro.sim.query) -------------

    def operators(self) -> list[tuple[str, StreamingJoinOperator]]:
        """``(label, operator)`` pairs — one join, so one entry."""
        return [(self._operator.name, self._operator)]

    def stop_reached(self) -> bool:
        """Whether the ``stop_after`` early-stop condition holds."""
        return self._stop_reached()

    def finish_run(self) -> bool:
        """Run the cleanup phase and finalise checks; True if completed.

        Call only after the streaming phase drained without stopping;
        the cleanup itself may still stop early (``stop_after`` during
        the final merge), in which case False is returned.
        """
        self._finish()
        completed = not self._stop_reached()
        self._finalize_checks(completed)
        return completed

    def build_result(self, completed: bool) -> SimulationResult:
        """Snapshot the run's outcome object."""
        return self._result(completed)

    def run(self) -> SimulationResult:
        """Drive the simulation to completion (or to the early stop)."""
        if not self.scheduler.run():
            return self._result(completed=False)
        return self._result(completed=self.finish_run())

    def stream(self):
        """Drive the simulation, yielding results as they are produced.

        Yields ``(JoinResult, ResultEvent)`` pairs.  While the sources
        stream, results surface with single-arrival granularity; the
        cleanup phase's results are yielded together after it completes
        (operators finish in one protocol call).  Works with
        ``keep_results=False`` too: yielded results come from a tap on
        the recorder, so streaming consumers do not force the full
        output history to stay resident.
        """
        # Batch delivery would surface a whole run's results per step;
        # streaming promises single-arrival granularity, so it stays on
        # the per-event path (same numbers, finer interleaving).
        self.scheduler.batching = False
        fresh: list = []
        self.recorder.add_tap(lambda result, event: fresh.append((result, event)))

        def drain():
            batch = fresh.copy()
            fresh.clear()
            yield from batch

        while self.scheduler.step():
            yield from drain()
        yield from drain()
        if not self._stop_reached():
            self._finish()
            self._finalize_checks(completed=not self._stop_reached())
            yield from drain()

    def _result(self, completed: bool) -> SimulationResult:
        return SimulationResult(
            recorder=self.recorder,
            clock=self.clock,
            disk=self.disk,
            operator=self._operator,
            completed=completed,
            journal=self.journal,
        )


class ResultStream:
    """Iterator over a streaming run's ``(result, event)`` pairs.

    What :func:`stream_join` (and the pipeline's ``stream_plan``)
    return: iterate it like a plain generator, with the run's context
    (journal, recorder, clock) attached so streaming consumers can
    read the event timeline without holding on to the simulation
    themselves.  ``sim`` is any driver exposing ``stream()``,
    ``journal``, ``recorder``, and ``clock``.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._iter = sim.stream()

    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self):
        return next(self._iter)

    @property
    def journal(self) -> SimulationJournal | None:
        """The structural-event timeline (when ``journal=True``)."""
        return self._sim.journal

    @property
    def recorder(self) -> MetricsRecorder:
        """The run's metrics recorder."""
        return self._sim.recorder

    @property
    def clock(self) -> VirtualClock:
        """The run's virtual clock."""
        return self._sim.clock


def run_join(
    source_a: "NetworkSource | DisorderedSource",
    source_b: "NetworkSource | DisorderedSource",
    operator: StreamingJoinOperator,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    spill_dir: str | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    checks=None,
) -> SimulationResult:
    """Run a two-source streaming join to completion.

    Args:
        source_a: Source delivering relation A.
        source_b: Source delivering relation B.
        operator: An unbound streaming join operator.
        costs: Cost model (defaults to :class:`CostModel` defaults).
        blocking_threshold: Section 6.3's ``T`` — a source is blocked
            when no tuple arrives within this many virtual seconds.
            Must be > 0 (NaN raises :class:`ConfigurationError`);
            ``inf`` means never blocked.
        keep_results: Retain result tuples for correctness checks.
        stop_after: Optionally stop once this many results exist (the
            paper's "first k results" measurements).
        spill_dir: When given, spilled blocks are persisted as real
            binary files under this directory (a
            :class:`~repro.storage.filedisk.FileBackedDisk`) and reads
            round-trip through them; I/O accounting is unchanged.
        journal: Record a structural-event timeline (flushes, blocked
            windows, blocked grants, merge passes) on ``result.journal``.
        broker: Optional :class:`~repro.sim.broker.ResourceBroker`; the
            operator is bound to it and the broker's grant schedule
            fires as timed kernel events, resizing memory mid-run.
        batch_delivery: Deliver maximal runs of consecutive arrivals
            in one kernel dispatch (the default) — as column arrays to
            operators that support them, as boxed tuples replayed
            through ``on_tuple`` otherwise.  Observable results — every
            count, virtual-clock, and I/O number — are identical
            either way; False forces the per-event path (the reference
            the equivalence tests compare against).
        checks: Attach in-engine invariant checkers
            (:mod:`repro.testing.checks`).  ``True`` raises on the
            first violation; an
            :class:`~repro.testing.checks.InvariantChecks` instance
            (e.g. in ``collect`` mode) is used as given.  Checkers are
            pure observers — the run's numbers are identical with or
            without them.

    Returns:
        A :class:`SimulationResult` with the recorder, clock, and disk.
    """
    sim = JoinSimulation(
        source_a,
        source_b,
        operator,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        spill_dir=spill_dir,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    # A solo run is a one-query session: the Query lifecycle dispatches
    # exactly the step sequence ``sim.run()`` always did, so every pin
    # stays byte-identical (see repro.sim.query).
    from repro.sim.query import Query

    return Query(sim).run()


def stream_join(
    source_a: "NetworkSource | DisorderedSource",
    source_b: "NetworkSource | DisorderedSource",
    operator: StreamingJoinOperator,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    spill_dir: str | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    checks=None,
) -> ResultStream:
    """Iterate a streaming join's results as they are produced.

    The generator-of-results counterpart of :func:`run_join` — what a
    pipelined consumer (or an impatient user) actually sees::

        stream = stream_join(src_a, src_b, operator, journal=True)
        for result, event in stream:
            print(f"match {result.key} after {event.time:.3f}s")
            if event.k >= 10:
                break   # early consumers can just stop iterating
        print(stream.journal.render(limit=10))

    Yields ``(JoinResult, ResultEvent)`` pairs in production order.
    With ``keep_results=False`` the recorder retains no output history
    — results are only yielded, keeping long streams memory-bounded.
    """
    sim = JoinSimulation(
        source_a,
        source_b,
        operator,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        spill_dir=spill_dir,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    return ResultStream(sim)
