"""The two-source join simulation: the one-join plan.

:func:`run_join` reproduces the measurement setup of the paper's
Section 6: two sources deliver tuples at virtual instants drawn from
their arrival processes; the operator processes each tuple (charging
CPU and any flush I/O to the shared clock); and whenever *both* sources
go silent for longer than the blocking threshold ``T``, the operator is
given the gap for background work (HMJ's and PMJ's merging, XJoin's
reactive stage).  After both inputs end, ``finish`` runs the cleanup
phase to completion.  If tuples arrive faster than the operator can
process them, the clock is driven by processing time; if the network
is the bottleneck, the clock synchronises to arrivals.

A binary join is the plan ``join(leaf(a), leaf(b), ...)``, so
:class:`JoinSimulation` is a thin
:class:`~repro.pipeline.executor.PlanExecutor` — the one driver, which
owns the kernel wiring, columnar run delivery, early stops, streaming,
cleanup and checks.  This module adds only what binary joins alone
have: the side checks, ``spill_dir``, and a :class:`SimulationResult`
carrying the run's disk and operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.joins.base import StreamingJoinOperator
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import DisorderedSource, NetworkSource
from repro.pipeline.executor import PlanExecutor, ResultStream
from repro.pipeline.plan import join, leaf
from repro.sim.broker import ResourceBroker
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import SimulationJournal
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


class JoinSimulation(PlanExecutor):
    """A configured, steppable join simulation: one join, two sources.

    Most callers should use :func:`run_join`; this class exists for
    tests and examples that want to inspect state mid-run.  The
    A-labelled source plays the left leaf whichever argument slot it
    came in, so it also wins arrival ties.
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
        if source_a.source_label == source_b.source_label:
            # Operators side each tuple by its label: two same-labelled
            # inputs would silently join nothing.
            raise ConfigurationError(
                "source_a and source_b carry the same relation label "
                f"{source_a.source_label!r}; one join needs one A and one B input"
            )
        if broker is not None and not operator.supports_memory_resize:
            # A plan skips non-resizable nodes; a binary join under a
            # broker has nothing else to govern.
            raise ConfigurationError(
                f"{operator.name} does not support runtime memory adaptation"
            )
        if source_b.source_label == SOURCE_A:
            source_a, source_b = source_b, source_a
        self._spill_dir = spill_dir
        super().__init__(
            join(leaf(source_a), leaf(source_b), lambda: operator, label=operator.name),
            costs=costs,
            blocking_threshold=blocking_threshold,
            keep_results=keep_results,
            stop_after=stop_after,
            journal=journal,
            broker=broker,
            batch_delivery=batch_delivery,
            checks=checks,
        )

    def _make_disk(self) -> SimulatedDisk:
        if self._spill_dir is None:
            return super()._make_disk()
        # Imported lazily: the file-backed disk is optional and pulls
        # in the serialization machinery.
        from repro.storage.filedisk import FileBackedDisk

        return FileBackedDisk(self.clock, self._costs, self._spill_dir)

    @property
    def disk(self) -> SimulatedDisk:
        """The join's disk, with its cumulative I/O counters."""
        return self._root_state.disk

    def build_result(self, completed: bool) -> SimulationResult:  # type: ignore[override]
        """Snapshot the run's outcome object."""
        return SimulationResult(
            recorder=self.recorder,
            clock=self.clock,
            disk=self.disk,
            operator=self._root_state.operator,
            completed=completed,
            journal=self.journal,
        )


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
        checks=checks,
    )
    return ResultStream(sim)
