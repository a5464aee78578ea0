"""Streaming network sources.

A :class:`NetworkSource` binds a relation to an arrival process: each
tuple gets an absolute virtual arrival time.  The engine *peeks* the
next arrival to decide whether a source has gone silent long enough to
count as blocked (Section 6.3's threshold ``T``) and *pops* tuples as
the virtual clock reaches them.

Two extensions widen the scenario space beyond one in-order stream per
consumer:

* **shared sources** — :meth:`NetworkSource.cursor` hands out
  independent :class:`SourceCursor` read positions over one
  materialised schedule, so a single source can feed several plan
  leaves (a star-shaped plan joining one hub relation against many
  spokes) without replaying or copying the relation;
* **bounded disorder** — a :class:`DisorderedSource` delivers tuples
  in *physical* arrival order (the event schedule jittered by a seeded
  :class:`~repro.net.arrival.BoundedDisorder` model), and a
  :class:`ReorderBuffer` restores event order behind punctuation-style
  watermark timers on the kernel, releasing tuple ``i`` exactly at
  ``e_i + B``.  Downstream operators therefore observe the in-order
  schedule shifted by the watermark bound — byte-identical to running
  the in-order twin (:meth:`DisorderedSource.ordered_source`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.net.arrival import ArrivalProcess, BoundedDisorder, ScheduleArrival
from repro.storage.tuples import Relation, RelationColumns, Tuple


class NetworkSource:
    """A relation arriving over a (possibly unreliable) network.

    Arrival times are materialised up front from the process and a
    seeded generator, so a given (relation, process, seed) triple always
    produces the identical stream — the determinism every experiment in
    this repository relies on.
    """

    def __init__(
        self,
        relation: Relation,
        arrivals: ArrivalProcess,
        seed: int | None = 0,
        start: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start!r}")
        if rng is None:
            rng = np.random.default_rng(seed)
        self._relation = relation
        # The native float64 schedule backs the columnar delivery path
        # (zero-copy slices per batch)...
        self._times_array: np.ndarray = arrivals.arrival_times(
            len(relation), rng, start=start
        )
        # ...while the same instants, materialised once as plain Python
        # floats, back the per-event path: the kernel peeks or pops
        # every entry at least once, and numpy scalar boxing on that
        # path costs more than the whole conversion.  ``tolist`` is
        # bit-exact, so both views agree on every instant.
        self._times: list[float] = self._times_array.tolist()
        self._index = 0

    @property
    def name(self) -> str:
        """Human-readable source name (from the relation schema)."""
        return self._relation.schema.name

    @property
    def source_label(self) -> str:
        """The source tag ("A" or "B") carried by this stream's tuples."""
        return self._relation.source

    @property
    def relation(self) -> Relation:
        """The relation this source delivers (read-only).

        Tuple ``i`` of the relation arrives at entry ``i`` of the
        materialised schedule; the conformance layer zips the two to
        check that no result is emitted before both constituents
        arrived.
        """
        return self._relation

    def __len__(self) -> int:
        return len(self._relation)

    @property
    def delivered(self) -> int:
        """Tuples already popped."""
        return self._index

    @property
    def remaining(self) -> int:
        """Tuples not yet popped."""
        return len(self._relation) - self._index

    @property
    def exhausted(self) -> bool:
        """Whether every tuple has been delivered."""
        return self._index >= len(self._relation)

    def peek_time(self) -> float | None:
        """Arrival time of the next tuple, or ``None`` when exhausted."""
        if self.exhausted:
            return None
        return self._times[self._index]

    def pop(self) -> tuple[float, Tuple]:
        """Deliver the next (arrival_time, tuple) pair."""
        if self.exhausted:
            raise SimulationError(f"source {self.name!r} is exhausted")
        t = self._relation[self._index]
        time = self._times[self._index]
        self._index += 1
        return time, t

    def pop_batch(self, n: int) -> tuple[list[float], list[Tuple]]:
        """Deliver the next ``n`` (times, tuples) as two parallel slices.

        The batched counterpart of :meth:`pop`: two list slices instead
        of ``n`` per-tuple calls.  The delivery order and content are
        identical.
        """
        start = self._index
        end = start + n
        if n < 1 or end > len(self._relation):
            raise SimulationError(
                f"source {self.name!r} cannot deliver {n} tuples "
                f"({self.remaining} remaining)"
            )
        self._index = end
        return self._times[start:end], self._relation.tuples[start:end]

    def pop_batch_columns(
        self, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list | None]:
        """Deliver the next ``n`` arrivals as zero-copy column slices.

        Returns ``(times, keys, tids, payloads)`` — three array views
        over the source's native schedule and the relation's columnar
        image, plus the payload reference slice (``None`` when the
        relation carries no payloads).  No ``Tuple`` is boxed; the
        delivery order and content are identical to :meth:`pop_batch`.
        """
        start = self._index
        end = start + n
        if n < 1 or end > len(self._relation):
            raise SimulationError(
                f"source {self.name!r} cannot deliver {n} tuples "
                f"({self.remaining} remaining)"
            )
        cols = self._relation.columns()
        self._index = end
        payloads = None if cols.payloads is None else cols.payloads[start:end]
        return (
            self._times_array[start:end],
            cols.keys[start:end],
            cols.tids[start:end],
            payloads,
        )

    def columns(self) -> RelationColumns:
        """The delivered relation's columnar image."""
        return self._relation.columns()

    def pending_times(self) -> tuple[list[float], int]:
        """The full arrival-time list and the next-delivery cursor.

        The plain-float view of :meth:`pending_times_array`, for
        consumers that walk the schedule in Python (traces, checks).
        """
        return self._times, self._index

    def pending_times_array(self) -> tuple[np.ndarray, int]:
        """Array twin of :meth:`pending_times` (same instants, float64).

        The kernel's run-batch extraction reads (never consumes) this
        to find maximal deliverable runs without per-tuple peek calls;
        ``tolist`` round-trips bit-exactly, so the two views can never
        disagree.
        """
        return self._times_array, self._index

    def arrival_schedule(self) -> np.ndarray:
        """Copy of the full arrival-time vector (for tests and plots)."""
        return self._times_array.copy()

    def cursor(self, label: str = "") -> "SourceCursor":
        """An independent read position over this source's stream.

        Each cursor sees the full relation at the full schedule and
        consumes it at its own pace, so one source can feed several
        plan leaves (per-consumer cursors are how a plan shares a
        source without turning the tree into a DAG).  Cursors and
        direct consumption do not mix: hand the source itself to at
        most zero consumers once any cursor exists.
        """
        return SourceCursor(self, label=label)

    def __repr__(self) -> str:
        return (
            f"NetworkSource(name={self.name!r}, n={len(self)}, "
            f"delivered={self._index})"
        )


class SourceCursor(NetworkSource):
    """One consumer's read position over a shared :class:`NetworkSource`.

    A source whose relation and both schedule views are the hub's, read
    from a private index, so the engine and plan executor treat a
    cursor exactly like a dedicated source.  None of the cursors moves
    the hub's own index.
    """

    def __init__(self, source: NetworkSource, label: str = "") -> None:
        self._relation = source.relation
        self._times_array = source._times_array
        self._times = source._times
        self._index = 0
        self._label = label or f"{source.name}*"

    @property
    def name(self) -> str:
        """Cursor label (defaults to the source name starred)."""
        return self._label

    def __repr__(self) -> str:
        return (
            f"SourceCursor(name={self.name!r}, n={len(self)}, "
            f"delivered={self._index})"
        )


class DisorderedSource:
    """A relation arriving over a network that reorders within a bound.

    The *event schedule* ``e_i`` is materialised exactly as
    :class:`NetworkSource` would (same arrival process, same seed, same
    instants bit for bit); a :class:`~repro.net.arrival.BoundedDisorder`
    model then jitters each instant into a *physical* arrival time
    ``p_i`` with ``|p_i - e_i| <= slack``.  Tuples are handed out in
    physical order via :meth:`pop_physical` — the raw out-of-order tap
    a :class:`ReorderBuffer` drains — while :meth:`release_times`
    exposes the punctuation deadlines ``e_i + B`` (event order) at
    which the buffer re-delivers them downstream.

    A disordered source is *not* a kernel stream: it has no ``peek`` /
    ``pop`` surface, so it cannot be wired where in-order delivery is
    assumed.  :meth:`ordered_source` builds the in-order twin — a plain
    :class:`NetworkSource` over the same relation whose schedule *is*
    the release schedule — which a buffered run must match
    byte-identically in (count, clock, io).
    """

    def __init__(
        self,
        relation: Relation,
        arrivals: ArrivalProcess,
        disorder: BoundedDisorder,
        seed: int | None = 0,
        start: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start!r}")
        if rng is None:
            rng = np.random.default_rng(seed)
        self._relation = relation
        self._disorder = disorder
        # Event schedule: identical to the NetworkSource twin's.
        self._event_times: np.ndarray = arrivals.arrival_times(
            len(relation), rng, start=start
        )
        physical = disorder.perturb(self._event_times)
        # Physical delivery order: stable sort keeps event order among
        # exact physical-time ties, so the tap is deterministic.
        order = np.argsort(physical, kind="stable")
        self._physical_sorted: list[float] = physical[order].tolist()
        self._physical_order: list[int] = order.tolist()
        # Punctuation deadlines, event order: e_i + B.  These are the
        # instants the reorder buffer re-delivers at, i.e. the arrival
        # schedule downstream operators actually observe.
        self._release_array: np.ndarray = self._event_times + disorder.bound
        self._release: list[float] = self._release_array.tolist()
        self._tap_index = 0

    @property
    def name(self) -> str:
        """Human-readable source name (from the relation schema)."""
        return self._relation.schema.name

    @property
    def source_label(self) -> str:
        """The source tag ("A" or "B") carried by this stream's tuples."""
        return self._relation.source

    @property
    def relation(self) -> Relation:
        """The relation this source delivers (read-only, event order)."""
        return self._relation

    @property
    def disorder(self) -> BoundedDisorder:
        """The disorder model that produced the physical schedule."""
        return self._disorder

    def __len__(self) -> int:
        return len(self._relation)

    @property
    def delivered(self) -> int:
        """Tuples already drained from the physical tap."""
        return self._tap_index

    @property
    def exhausted(self) -> bool:
        """Whether the physical tap has been fully drained."""
        return self._tap_index >= len(self._relation)

    def peek_physical(self) -> float | None:
        """Physical instant of the next out-of-order arrival, or ``None``."""
        if self.exhausted:
            return None
        return self._physical_sorted[self._tap_index]

    def pop_physical(self) -> tuple[float, int, Tuple]:
        """Drain the next physical arrival: (instant, event index, tuple)."""
        if self.exhausted:
            raise SimulationError(f"source {self.name!r} is exhausted")
        i = self._tap_index
        self._tap_index += 1
        event_index = self._physical_order[i]
        return self._physical_sorted[i], event_index, self._relation[event_index]

    def release_times(self) -> list[float]:
        """Punctuation deadlines ``e_i + B``, in event order."""
        return self._release

    def pending_times(self) -> tuple[list[float], int]:
        """The observed (release) schedule, for the conformance layer.

        Mirrors :meth:`NetworkSource.pending_times` so ``arrival_map``
        can zip tuple identities with the instants downstream operators
        actually see — which, behind a reorder buffer, are the release
        deadlines, not the physical arrivals.
        """
        return self._release, 0

    def event_times(self) -> np.ndarray:
        """Copy of the unjittered event schedule (for tests and plots)."""
        return self._event_times.copy()

    def physical_times(self) -> np.ndarray:
        """Copy of the physical schedule, in delivery (sorted) order."""
        return np.asarray(self._physical_sorted, dtype=float)

    def max_displacement(self) -> int:
        """Largest |physical position - event position| over all tuples."""
        if not self._physical_order:
            return 0
        positions = np.asarray(self._physical_order)
        return int(np.abs(positions - np.arange(positions.size)).max())

    def ordered_source(self) -> NetworkSource:
        """The in-order twin: the release schedule as a plain source.

        A run over this source is the oracle a buffered disordered run
        must match byte-identically — same relation, same instants
        (``e_i + B``), delivered in event order by the kernel's normal
        stream machinery.
        """
        return NetworkSource(
            self._relation, ScheduleArrival(self._release_array)
        )

    def __repr__(self) -> str:
        return (
            f"DisorderedSource(name={self.name!r}, n={len(self)}, "
            f"drained={self._tap_index}, disorder={self._disorder!r})"
        )


class ReorderBuffer:
    """Restores event order over a :class:`DisorderedSource` via watermarks.

    The buffer participates in the simulation as *keep-alive timers* on
    the :class:`~repro.sim.scheduler.EventScheduler`: one punctuation
    timer is armed at the next release deadline ``e_i + B``; when it
    fires the buffer ingests every physical arrival due by then (pure
    data movement — physical arrivals are not kernel events and carry
    no cost), delivers the due tuples downstream in event order, and
    re-arms for the next deadline.  The bound guarantees availability
    (``p_i <= e_i + slack <= e_i + B``), so downstream observes exactly
    the in-order twin's schedule and every determinism triple stays
    byte-identical to the ordered run.

    Consecutive same-deadline releases honour the scheduler's stop
    predicate between deliveries, mirroring the kernel's batched
    arrival contract.
    """

    def __init__(
        self,
        source: DisorderedSource,
        deliver: Callable[[Tuple], None],
        label: str = "",
    ) -> None:
        self._source = source
        self._deliver = deliver
        self._label = label or source.name
        self._deadlines = source.release_times()
        self._n = len(source)
        self._pending: dict[int, Tuple] = {}
        self._next = 0
        self._watermark = float("-inf")
        self._peak_buffered = 0
        self._released = 0
        self._installed = False

    @property
    def label(self) -> str:
        """Buffer label (journal actor and diagnostics)."""
        return self._label

    @property
    def released(self) -> int:
        """Tuples re-delivered downstream so far."""
        return self._released

    @property
    def peak_buffered(self) -> int:
        """Largest number of tuples held back at any punctuation."""
        return self._peak_buffered

    @property
    def watermark(self) -> float:
        """Latest punctuation instant processed (-inf before the first)."""
        return self._watermark

    @property
    def drained(self) -> bool:
        """Whether every tuple has been released downstream."""
        return self._next >= self._n

    def install(self, scheduler) -> None:
        """Arm the first punctuation timer on the scheduler."""
        if self._installed:
            raise ConfigurationError(
                f"reorder buffer {self._label!r} is already installed"
            )
        self._installed = True
        if self._next < self._n:
            scheduler.call_at(
                self._deadlines[self._next],
                partial(self._on_punctuation, scheduler),
                keep_alive=True,
            )

    def _on_punctuation(self, scheduler) -> None:
        source = self._source
        # The armed instant: releases are bounded by it, never by the
        # live clock — processing may push the clock past later
        # deadlines, but those releases belong to their own timers,
        # after whatever other heap events sit in between (exactly
        # where the in-order twin's kernel would dispatch them).
        punctuation = self._deadlines[self._next]
        # Ingest the physical tap up to the punctuation.  Pure data
        # movement: physical arrivals are not kernel events and carry
        # no clock or I/O cost.  The watermark bound guarantees every
        # tuple due now has physically arrived (p_i <= e_i + B).
        while True:
            p = source.peek_physical()
            if p is None or p > punctuation:
                break
            _, event_index, t = source.pop_physical()
            self._pending[event_index] = t
        self._watermark = punctuation
        if len(self._pending) > self._peak_buffered:
            self._peak_buffered = len(self._pending)
        if scheduler.journal is not None:
            scheduler.journal.record(
                "reorder",
                "watermark",
                label=self._label,
                buffered=len(self._pending),
            )
        # Release due tuples in event order, honouring the stop
        # predicate between consecutive deliveries, where the kernel's
        # per-event loop would check it before each arrival.
        first = True
        while self._next < self._n and self._deadlines[self._next] <= punctuation:
            if first:
                first = False
            elif scheduler.stopped:
                return
            t = self._pending.pop(self._next)
            self._next += 1
            self._released += 1
            self._deliver(t)
        if self._next < self._n and not scheduler.stopped:
            scheduler.call_at(
                self._deadlines[self._next],
                partial(self._on_punctuation, scheduler),
                keep_alive=True,
            )

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(label={self._label!r}, released={self._released}, "
            f"buffered={len(self._pending)})"
        )
