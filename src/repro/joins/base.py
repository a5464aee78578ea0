"""The streaming-join operator protocol and shared runtime plumbing.

The engine drives every non-blocking join through four calls:

* ``on_tuple(t)`` — a tuple arrived from one source; process it fully
  (probe, store, flush if memory is exhausted) and emit any matches.
* ``has_background_work()`` — is there disk-resident (or deferred) work
  that could produce results while both sources are blocked?
* ``on_blocked(budget)`` — both sources are blocked (no arrival within
  the threshold ``T`` of Section 6.3); do background work until the
  budget's deadline, yielding promptly when it expires.
* ``finish(budget)`` — both inputs ended; complete all remaining work.
  The budget is normally unbounded but may carry an early-stop
  condition when the experiment only needs the first k results.

Every emission goes through :meth:`StreamingJoinOperator.emit`, which
charges the per-result CPU cost and records the (time, io, phase)
snapshot — so all operators are measured identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TypeVar

from repro.errors import ProtocolError, SimulationError
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple, make_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnBatch
    from repro.core.hashing import DualHashTable
    from repro.metrics.recorder import MetricsRecorder
    from repro.sim.budget import WorkBudget
    from repro.sim.clock import VirtualClock
    from repro.sim.costs import CostModel
    from repro.sim.journal import SimulationJournal
    from repro.storage.disk import SimulatedDisk
    from repro.storage.memory import MemoryPool

_T = TypeVar("_T")


@dataclass(slots=True)
class JoinRuntime:
    """The shared simulation services an operator runs against."""

    clock: VirtualClock
    disk: SimulatedDisk
    costs: CostModel
    recorder: MetricsRecorder
    #: Optional structural-event timeline (run_join(journal=True)).
    journal: "SimulationJournal | None" = None


class StreamingJoinOperator(abc.ABC):
    """Base class for all non-blocking join operators.

    Subclasses implement the four protocol hooks; the base class owns
    the bind-before-use lifecycle and the uniform emission path.
    """

    #: Human-readable operator name, overridden by subclasses.
    name = "streaming-join"

    #: Whether :meth:`resize_memory` accepts mid-run budget changes.
    #: Operators that implement a usable resize set this True; the
    #: :class:`~repro.sim.broker.ResourceBroker` only binds operators
    #: that advertise it.
    supports_memory_resize = False

    def __init__(self) -> None:
        self._runtime: JoinRuntime | None = None
        self._finished = False
        #: Largest |size(A-side) - size(B-side)| observed in the hash
        #: tables.  Maintained by the :class:`SymmetricHashStage` step
        #: and by the shared columnar batch loop; declared here so
        #: array-native helpers can read it through the base type.
        self.peak_imbalance: int = 0

    # -- lifecycle -----------------------------------------------------

    def bind(self, runtime: JoinRuntime) -> None:
        """Attach the operator to a simulation's runtime services.

        Called exactly once by the engine before any tuple is fed.
        """
        if self._runtime is not None:
            raise ProtocolError(f"{self.name} is already bound to a runtime")
        self._runtime = runtime
        self._setup()

    def _setup(self) -> None:
        """Hook for subclasses to build runtime-dependent state."""

    @property
    def runtime(self) -> JoinRuntime:
        """The bound runtime (raises if the operator is unbound)."""
        return self._bound(self._runtime)

    def _bound(self, state: "_T | None") -> "_T":
        """``state`` built by :meth:`bind`; raises while still unbound.

        Backs the runtime-dependent accessors (memory pool, hash table,
        merge scheduler) so an unbound operator fails with the typed
        :class:`~repro.errors.ProtocolError` instead of an assertion.
        """
        if state is None:
            raise ProtocolError(
                f"{self.name} must be bound to a JoinRuntime before use"
            )
        return state

    @property
    def clock(self) -> VirtualClock:
        """Shared virtual clock."""
        return self.runtime.clock

    @property
    def disk(self) -> SimulatedDisk:
        """Shared simulated disk."""
        return self.runtime.disk

    @property
    def costs(self) -> CostModel:
        """Shared cost model."""
        return self.runtime.costs

    @property
    def recorder(self) -> MetricsRecorder:
        """Shared metrics recorder."""
        return self.runtime.recorder

    @property
    def finished(self) -> bool:
        """Whether ``finish`` has completed."""
        return self._finished

    # -- protocol hooks ------------------------------------------------

    @abc.abstractmethod
    def on_tuple(self, t: Tuple) -> None:
        """Process one arrived tuple, emitting any matches it produces."""

    def on_tuple_batch(
        self, tuples: Sequence[Tuple], times: Sequence[float]
    ) -> None:
        """Process a run of arrivals, each at its own arrival instant.

        Replays the per-tuple protocol verbatim: the clock advances to
        each tuple's arrival time, then :meth:`on_tuple` processes it,
        so charges and emission order are exactly the per-event ones.
        The base :meth:`on_column_batch` boxes every run batch into this
        replay for operators without an array-native path.
        """
        advance_to = self.clock.advance_to
        on_tuple = self.on_tuple
        for t, at in zip(tuples, times):
            advance_to(at)
            on_tuple(t)

    def on_column_batch(self, batch: "ColumnBatch") -> None:
        """Process a run of arrivals delivered as columns.

        The driver hands a one-join plan's every run batch to this
        hook (only while no early stop is armed; under a stop every
        kernel step delivers one tuple through :meth:`on_tuple`).
        Implementations must match per-tuple delivery exactly —
        identical per-tuple clock charges and emission order.  This default boxes the batch and replays it
        through :meth:`on_tuple_batch`, so operators without an
        array-native path (and subclasses that customise
        :meth:`on_tuple`) stay correct.
        """
        tuples, times = batch.to_tuples()
        self.on_tuple_batch(tuples, times)

    @abc.abstractmethod
    def has_background_work(self) -> bool:
        """Whether blocked-time work could currently produce results."""

    @abc.abstractmethod
    def on_blocked(self, budget: WorkBudget) -> None:
        """Do background work while both sources are blocked."""

    @abc.abstractmethod
    def finish(self, budget: WorkBudget) -> None:
        """Complete all remaining work after both inputs ended."""

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant while running.

        The default rejects the call; operators that can re-fit their
        resident state to a new budget override this and set
        :attr:`supports_memory_resize`.
        """
        raise ProtocolError(
            f"{self.name} does not support runtime memory adaptation"
        )

    # -- operator morphing ----------------------------------------------
    #
    # Mid-run strategy switching: a morphable *source* operator can hand
    # its resident hash-table tuples to a morph *target* through these
    # hooks.  Every match among the exported tuples was already emitted
    # by the source (streaming joins emit on arrival), so the target
    # must re-build lookup state WITHOUT re-probing — otherwise results
    # would duplicate.

    def export_hash_state(self) -> "list[Tuple] | None":
        """Extract every resident tuple for a morph, releasing memory.

        Returns ``None`` when the operator cannot currently hand over a
        consistent state (the default: no morph support, or disk-
        resident state a target could not adopt).  A non-``None``
        return means the operator's memory is drained and it will not
        be called again.
        """
        return None

    def import_hash_state(self, tuples: "Sequence[Tuple]") -> None:
        """Adopt another operator's exported resident tuples.

        Insert-only: matches among ``tuples`` were emitted by the
        exporting operator already, so implementations must store them
        for *future* probes without emitting anything now.
        """
        raise ProtocolError(
            f"{self.name} does not support adopting morphed state"
        )

    # -- conformance taps ----------------------------------------------
    #
    # Pure observers for :mod:`repro.testing.checks`: they must never
    # advance the clock, touch the disk, or mutate operator state, so
    # probing them mid-run cannot change a simulation's numbers.

    def memory_usage(self) -> tuple[int, int] | None:
        """Current ``(used, capacity)`` of the operator's memory budget.

        ``None`` when the operator runs without a budget (or before
        ``bind``).  The conformance probe polls this after every kernel
        step to check the pool never exceeds its grant.
        """
        return None

    def memory_capacity(self) -> int | None:
        """The operator's current memory grant (capacity) in tuples.

        The capacity half of :meth:`memory_usage` — what the memory
        broker reads to learn a query's configured request and to skip
        no-op resizes.  ``None`` for budget-less operators.
        """
        usage = self.memory_usage()
        return None if usage is None else usage[1]

    def spilled_unmerged(self) -> bool:
        """Whether flushed (spilled) state still awaits disk-side work.

        Checked *after* ``finish`` completes: a finished operator
        reporting True has left flushed pages unmerged — results from
        disk-resident matches would be missing.  Operators that never
        spill keep the default False.
        """
        return False

    # -- shared services ----------------------------------------------

    def emit(self, first: Tuple, second: Tuple, phase: str) -> None:
        """Emit one join result, charging CPU and recording metrics."""
        if self._finished:
            raise ProtocolError(f"{self.name} emitted a result after finish()")
        runtime = self.runtime
        runtime.clock.advance(runtime.costs.result_time(1))
        runtime.recorder.record(make_result(first, second), phase)

    def _emit_guard(self) -> None:
        """The finished-check of :meth:`emit`, for batch emitters.

        The columnar hashing driver and the merge pass append results
        to the recorder in column batches instead of calling
        :meth:`emit`; calling this before each append keeps the
        no-results-after-finish protocol error intact.
        """
        if self._finished:
            raise ProtocolError(f"{self.name} emitted a result after finish()")

    def charge_probe(self, n_candidates: int) -> None:
        """Charge the CPU cost of comparing against ``n_candidates``."""
        if n_candidates:
            self.clock.advance(self.costs.probe_time(n_candidates))

    def charge_tuple(self) -> None:
        """Charge the fixed per-tuple receive/hash/store cost."""
        self.clock.advance(self.costs.cpu_tuple_cost)

    def charge_sort(self, n_tuples: int) -> None:
        """Charge an in-memory sort of ``n_tuples`` tuples."""
        self.clock.advance(self.costs.sort_time(n_tuples))

    def log_event(self, kind: str, **detail) -> None:
        """Record a structural event if journaling is enabled (else free)."""
        journal = self.runtime.journal
        if journal is not None:
            journal.record(self.name, kind, **detail)

    def mark_finished(self) -> None:
        """Record that ``finish`` completed (further emits are errors)."""
        self._finished = True


class SymmetricHashStage(StreamingJoinOperator):
    """The symmetric-hash hashing step of Figure 3 (Section 3.1).

    Charge the tuple, let the flushing policy make room, probe the
    opposite source's bucket, emit, and store.  SHJ, XJoin, DPHJ and
    HMJ all run this one step over a dual hash table and a memory pool
    that their :meth:`_setup` builds; each supplies its flush step
    (:meth:`_flush`) and phase label (``PHASE_HASHING``), and XJoin its
    per-row bookkeeping (:meth:`_record_row`).

    Column batches are replayed through this step, except in HMJ: its
    columnar loop (:func:`~repro.core.columnar.run_columnar_batch`)
    reproduces the step with the pool-wide room rule, so an HMJ
    subclass that customises :meth:`on_tuple` or :meth:`_make_room` has
    its batches replayed per tuple instead (:meth:`_replayed`).
    """

    #: Phase label of results the hashing step emits.
    PHASE_HASHING: str

    #: Whether column batches must be replayed through on_tuple.
    _replays_batches = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Decided at class creation, so wrapping the inherited step on
        # the class (a tracer, say) keeps the columnar path.
        if "on_tuple" in vars(cls) or "_make_room" in vars(cls):
            cls._replays_batches = True

    def __init__(self) -> None:
        super().__init__()
        self._table: DualHashTable | None = None
        self._memory: MemoryPool | None = None

    @property
    def table(self) -> DualHashTable:
        """The in-memory dual hash table."""
        return self._bound(self._table)

    @property
    def memory(self) -> MemoryPool:
        """The operator's memory budget."""
        return self._bound(self._memory)

    def memory_usage(self) -> tuple[int, int] | None:
        if self._memory is None:
            return None
        return (self._memory.used, self._memory.capacity)

    def on_tuple(self, t: Tuple) -> None:
        """Charge, make room, probe, emit, store (Figure 3, Steps 1-4).

        The per-event hot path: :meth:`charge_tuple` and
        :meth:`charge_probe` are inlined (the same expressions, so the
        clock stays bit-identical).
        """
        runtime = self.runtime
        clock = runtime.clock
        costs = runtime.costs
        table = self._bound(self._table)
        memory = self._bound(self._memory)
        clock.advance(costs.cpu_tuple_cost)
        self._make_room(t)
        matches, candidates, bucket = table.probe_insert(t)
        self._record_row(t, bucket)
        if candidates:
            clock.advance(costs.probe_time(candidates))
        for match in matches:
            self.emit(t, match, self.PHASE_HASHING)
        memory.allocate(1)
        imbalance = table.summary.imbalance()
        if imbalance > self.peak_imbalance:
            self.peak_imbalance = imbalance

    def _make_room(self, t: Tuple) -> None:
        """Flush until one more tuple fits the pool (Step 1)."""
        memory = self._bound(self._memory)
        while not memory.has_room(1):
            self._flush()

    @abc.abstractmethod
    def _flush(self) -> None:
        """Free memory in a full pool: the flushing policy."""

    def _record_row(self, t: Tuple, bucket: int) -> None:
        """Bookkeeping for ``t``, just probed and stored in ``bucket``.

        Runs before the probe charge: ``clock.now`` is the instant the
        tuple entered memory.
        """

    def _replayed(self, batch: "ColumnBatch") -> bool:
        """Replay ``batch`` per tuple if the columnar driver cannot.

        Returns True after replaying it through the base
        :meth:`on_column_batch`; False, doing nothing, otherwise.
        """
        if not self._replays_batches:
            return False
        super().on_column_batch(batch)
        return True

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant while running.

        Shrinking runs the flush step until the resident set fits;
        growing only raises the budget.  Operators that do not
        advertise :attr:`supports_memory_resize` reject the call.
        """
        if not self.supports_memory_resize:
            super().resize_memory(new_capacity)
        if new_capacity < 2:
            raise SimulationError(
                f"memory_capacity must be >= 2, got {new_capacity}"
            )
        memory = self.memory
        while memory.used > new_capacity:
            self._flush()
        memory.resize(new_capacity)

    def _drain_table(self) -> list[Tuple]:
        """Extract every resident tuple, group by group, freeing memory."""
        table = self.table
        drained: list[Tuple] = []
        for group in range(table.n_groups):
            drained += table.extract_group(SOURCE_A, group)
            drained += table.extract_group(SOURCE_B, group)
        if drained:
            self.memory.release(len(drained))
        return drained
