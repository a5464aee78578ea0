"""The one driver: a tree of streaming joins on the event kernel.

Every run in this repository — a two-source :func:`~repro.sim.engine.run_join`
as much as an n-way :func:`run_plan` — is a plan executed here, on the
shared :class:`~repro.sim.scheduler.EventScheduler` kernel.  A binary
join is the one-join plan ``join(leaf(a), leaf(b), ...)``
(:class:`~repro.sim.engine.JoinSimulation` builds exactly that):

* one shared virtual clock and cost model across the whole plan;
* one disk and one recorder *per join node* (operators keep their
  private spill partitions; per-node I/O remains attributable);
* a one-join plan over two bare leaves receives each merged run of
  arrivals as columns (:meth:`StreamingJoinOperator.on_column_batch
  <repro.joins.base.StreamingJoinOperator.on_column_batch>`); deeper
  plans take per-event kernel steps, because every result a node
  produces is wrapped as a side-labelled tuple and pushed into its
  parent operator immediately — full pipelining;
* when *every* leaf is silent past the blocking threshold, the kernel
  shares the gap round-robin between the nodes that have background
  work (HMJ/PMJ merging, XJoin's reactive stage), in threshold-sized
  slices, so one node's merge cannot starve the others;
* a :class:`~repro.sim.broker.ResourceBroker` can put every resizable
  node under one global memory grant, re-granted by timed kernel
  events mid-run;
* at end of input the joins finish bottom-up, each node's final
  results flowing into its parent before the parent's own cleanup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.columnar import ColumnBatch
from repro.errors import ConfigurationError
from repro.joins.base import JoinRuntime, StreamingJoinOperator
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import DisorderedSource, ReorderBuffer
from repro.pipeline.plan import (
    FilterNode,
    JoinNode,
    PlanNode,
    SourceLeaf,
    Transform,
    unwrap_transforms,
    validate_plan,
)
from repro.sim.broker import ResourceBroker
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import SimulationJournal
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, JoinResult, Tuple


@dataclass(slots=True)
class _NodeState:
    """Execution state of one join node."""

    node: JoinNode
    operator: StreamingJoinOperator
    recorder: MetricsRecorder
    disk: SimulatedDisk
    # (parent join, side played, transform chain top-down) or None.
    parent: tuple[JoinNode, str, list[Transform]] | None = None
    consumed: int = 0
    out_serial: int = 0


@dataclass(slots=True)
class NodeStats:
    """Per-node summary exposed on the result."""

    label: str
    operator: str
    results: int
    io: int


@dataclass(slots=True)
class PipelineResult:
    """Outcome of one plan execution.

    Attributes:
        recorder: The root join's recorder (the plan's output stream).
        clock: Final virtual clock.
        node_stats: Per-join summaries, bottom-up.
        completed: False when the run stopped early via ``stop_after``.
    """

    recorder: MetricsRecorder
    clock: VirtualClock
    node_stats: list[NodeStats] = field(default_factory=list)
    completed: bool = True
    journal: SimulationJournal | None = None

    @property
    def count(self) -> int:
        """Results produced at the plan root."""
        return self.recorder.count

    @property
    def results(self) -> list[JoinResult]:
        """Retained root results."""
        return self.recorder.results

    @property
    def total_io(self) -> int:
        """Page I/Os summed over every node's disk."""
        return sum(stat.io for stat in self.node_stats)


class PlanExecutor:
    """Drives one plan to completion (or to an early stop)."""

    def __init__(
        self,
        root: PlanNode,
        costs: CostModel | None = None,
        blocking_threshold: float = 1.0,
        keep_results: bool = True,
        stop_after: int | None = None,
        journal: bool = False,
        broker: ResourceBroker | None = None,
        batch_delivery: bool = True,
        checks=None,
    ) -> None:
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError(f"stop_after must be >= 1, got {stop_after!r}")
        self._costs = costs or CostModel()
        self._stop_after = stop_after
        self.clock = VirtualClock()
        self.journal = SimulationJournal(self.clock) if journal else None

        self._joins = validate_plan(root)  # bottom-up order
        self._states: dict[int, _NodeState] = {}
        for node in self._joins:
            disk = self._make_disk()
            # Non-root nodes must retain results to feed their parents.
            recorder = MetricsRecorder(
                self.clock, disk, keep_results=keep_results or node is not root
            )
            operator = node.operator_factory()
            operator.bind(
                JoinRuntime(
                    clock=self.clock,
                    disk=disk,
                    costs=self._costs,
                    recorder=recorder,
                    journal=self.journal,
                )
            )
            self._states[id(node)] = _NodeState(
                node=node, operator=operator, recorder=recorder, disk=disk
            )
        # Resolve each join child through any transform chain down to
        # the leaf or join actually producing its tuples (validate_plan
        # admits nothing else, and every node at most once).
        self._leaves: list[tuple[SourceLeaf, JoinNode, str, list[Transform]]] = []
        for node in self._joins:
            for child, side in ((node.left, SOURCE_A), (node.right, SOURCE_B)):
                target, chain = unwrap_transforms(child)
                if isinstance(target, SourceLeaf):
                    self._leaves.append((target, node, side, chain))
                else:
                    self._states[id(target)].parent = (node, side, chain)

        self._root_state = self._states[id(root)]

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
        # Every in-order leaf exposes its schedule to the kernel.  A
        # one-join plan over two bare leaves takes each merged run as
        # columns; anything deeper takes per-event steps, since results
        # must cascade upward immediately.  Disordered leaves are not
        # kernel streams at all — their tuples arrive through a reorder
        # buffer's punctuation timers in event order at e_i + B — so
        # the left leaf's stream index stays -1 for them.
        columnar = len(self._joins) == 1 and not any(
            chain for *_, chain in self._leaves
        )
        self._left_stream = -1
        # Each in-order leaf's column pop, by the side it plays.
        self._pop_columns: dict[str, Callable[[int], tuple]] = {}
        self._buffers: list[ReorderBuffer] = []
        for leaf, node, side, chain in self._leaves:
            release = self._release_into(node, side, chain)
            if isinstance(leaf.source, DisorderedSource):
                buffer = ReorderBuffer(leaf.source, release, label=leaf.label)
                buffer.install(self.scheduler)
                self._buffers.append(buffer)
                continue
            pop = leaf.source.pop
            index = self.scheduler.add_stream(
                leaf.source.peek_time,
                lambda pop=pop, release=release: release(pop()[1]),
                times=leaf.source.pending_times_array,
            )
            if columnar:
                self._pop_columns[side] = leaf.source.pop_batch_columns
                if side == SOURCE_A:
                    self._left_stream = index
        if columnar and batch_delivery:
            self.scheduler.deliver_run = self._deliver_batch
        for node in self._joins:
            state = self._states[id(node)]
            self.scheduler.add_worker(
                state.operator.has_background_work, self._worker_for(state)
            )
        if broker is not None:
            for node in self._joins:
                state = self._states[id(node)]
                if state.operator.supports_memory_resize:
                    broker.bind(state.operator, label=node.label)
            broker.install(self.scheduler)
        self._checks = None
        if checks:
            # Imported lazily: unchecked runs never touch the
            # conformance layer.
            from repro.testing.checks import arrival_map, coerce_checks

            self._checks = coerce_checks(checks)
            for node in self._joins:
                # Causality is checkable against a node's direct leaf
                # children: their tuples keep their tid and play the
                # node's side.  A side fed by a join has no arrivals,
                # so its synthetic tuples never match.
                arrivals = arrival_map(
                    *[(side, leaf.source) for leaf, n, side, _ in self._leaves if n is node]
                )
                self._checks.watch_recorder(
                    self._states[id(node)].recorder, node.label, arrivals=arrivals
                )
            self._checks.watch_kernel(self.scheduler, self.clock, self.operators())

    def _make_disk(self) -> SimulatedDisk:
        """A fresh disk for one join node."""
        return SimulatedDisk(self.clock, self._costs)

    # -- public API ---------------------------------------------------------

    @property
    def recorder(self) -> MetricsRecorder:
        """The root join's recorder (the plan's output stream)."""
        return self._root_state.recorder

    @property
    def reorder_buffers(self) -> list[ReorderBuffer]:
        """The installed reorder buffers (empty for in-order plans)."""
        return self._buffers

    # -- the uniform query-driver surface (see repro.sim.query) -------------

    def operators(self) -> list[tuple[str, StreamingJoinOperator]]:
        """``(label, operator)`` pairs for every join node, bottom-up."""
        return [
            (node.label, self._states[id(node)].operator)
            for node in self._joins
        ]

    def stop_reached(self) -> bool:
        """Whether the ``stop_after`` early-stop condition holds."""
        return self._stop_reached()

    def finish_run(self) -> bool:
        """Run the bottom-up cleanup and finalise checks; True if completed.

        Call only after the streaming phase drained without stopping;
        the cleanup itself may still stop early (``stop_after`` during
        a final merge), in which case False is returned.
        """
        self._finish_all()
        completed = not self._stop_reached()
        self._finalize_checks(completed)
        return completed

    def build_result(self, completed: bool) -> PipelineResult:
        """Snapshot the run's outcome object."""
        stats = [
            NodeStats(
                label=node.label,
                operator=self._states[id(node)].operator.name,
                results=self._states[id(node)].recorder.count,
                io=self._states[id(node)].disk.io_count,
            )
            for node in self._joins
        ]
        return PipelineResult(
            recorder=self._root_state.recorder,
            clock=self.clock,
            node_stats=stats,
            completed=completed,
            journal=self.journal,
        )

    def run(self):
        """Execute the plan; returns :meth:`build_result`'s object."""
        from repro.sim.query import Query

        return Query(self).run()

    def stream(self):
        """Execute the plan, yielding root results as they surface.

        Yields ``(JoinResult, ResultEvent)`` pairs from the plan root
        with single-arrival granularity while the leaves stream; the
        bottom-up cleanup's results arrive in per-node batches.  Works
        with ``keep_results=False``: results come from a tap on the
        root recorder, so the output history need not stay resident.
        """
        # Streaming promises single-arrival granularity; stay on the
        # per-event path (same numbers, finer interleaving).
        self.scheduler.deliver_run = None
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
            self.finish_run()
            yield from drain()

    # -- kernel participants ------------------------------------------------

    def _release_into(
        self, node: JoinNode, side: str, chain: list[Transform]
    ) -> Callable[[Tuple], None]:
        """A leaf tuple's way into its join: relabel, transform, cascade.

        Kernel streams call it as ``release(pop()[1])``, reorder
        buffers directly.  A bare leaf under the root takes the lean
        path: the root's results go nowhere, so nothing is pumped.
        """
        state = self._states[id(node)]
        on_tuple = state.operator.on_tuple
        if not chain and state.parent is None:
            return lambda raw: on_tuple(_relabel(raw, side))

        def release(raw: Tuple) -> None:
            t = self._apply_chain(chain, _relabel(raw, side), side)
            if t is not None:
                on_tuple(t)
                self._pump(node)

        return release

    def _deliver_batch(self, indices: np.ndarray, times: np.ndarray) -> None:
        """Pop one merged run of a one-join plan's leaves as columns.

        The kernel calls this only while no early stop is armed; every
        step under a stop is a per-event one.  ``indices`` holds each
        run position's stream index.  A row's side is its leaf's
        position — exactly what per-tuple relabelling gives.
        Single-leaf runs are zero-copy slices; mixed runs scatter the
        two leaves' column slices into run order.
        """
        pops = self._pop_columns
        from_left = indices == self._left_stream
        n = len(from_left)
        count_left = int(np.count_nonzero(from_left))
        if count_left == n:
            _, keys, tids, payloads = pops[SOURCE_A](n)
        elif count_left == 0:
            _, keys, tids, payloads = pops[SOURCE_B](n)
        else:
            _, keys_l, tids_l, pays_l = pops[SOURCE_A](count_left)
            _, keys_r, tids_r, pays_r = pops[SOURCE_B](n - count_left)
            from_right = ~from_left
            keys = np.empty(n, dtype=np.int64)
            keys[from_left], keys[from_right] = keys_l, keys_r
            tids = np.empty(n, dtype=np.int64)
            tids[from_left], tids[from_right] = tids_l, tids_r
            payloads = None
            if pays_l is not None or pays_r is not None:
                next_l = iter(pays_l or [None] * count_left).__next__
                next_r = iter(pays_r or [None] * (n - count_left)).__next__
                payloads = [next_l() if f else next_r() for f in from_left.tolist()]
        self._root_state.operator.on_column_batch(
            ColumnBatch(keys=keys, tids=tids, is_a=from_left, times=times, payloads=payloads)
        )

    def _worker_for(self, state: _NodeState):
        def run_blocked(budget) -> None:
            state.operator.on_blocked(budget)
            self._pump(state.node)

        return run_blocked

    def _finish_all(self) -> None:
        """Finish joins bottom-up, flowing final results into parents."""
        if self.journal is not None:
            self.journal.record("engine", "finish")
        for node in self._joins:
            if self._stop_reached():
                return
            state = self._states[id(node)]
            state.operator.finish(self.scheduler.unbounded_budget())
            self._pump(node)

    def _finalize_checks(self, completed: bool) -> None:
        if self._checks is not None:
            self._checks.finalize(self.operators(), self.clock, completed)

    # -- result propagation ----------------------------------------------------

    def _pump(self, node: JoinNode) -> None:
        """Push any fresh results of ``node`` up the tree, cascading."""
        current = node
        while True:
            state = self._states[id(current)]
            if state.parent is None:
                return
            fresh = state.recorder.results_since(state.consumed)
            if not fresh:
                return
            state.consumed += len(fresh)
            parent_node, side, chain = state.parent
            parent_state = self._states[id(parent_node)]
            for result in fresh:
                wrapped = self._apply_chain(
                    chain, self._wrap_result(result, side, state), side
                )
                if wrapped is not None:
                    parent_state.operator.on_tuple(wrapped)
            current = parent_node

    def _apply_chain(
        self, chain: list[Transform], t: Tuple, side: str
    ) -> Tuple | None:
        """Run a tuple up a transform chain; None means filtered out.

        The chain is stored top-down; tuples flow bottom-up, so it is
        applied in reverse.  Map results are re-normalised: the original
        ``tid`` and side label are enforced, so user functions cannot
        break identity uniqueness.
        """
        for node in reversed(chain):
            self.clock.advance(self._costs.cpu_compare_cost)
            if isinstance(node, FilterNode):
                if not node.predicate(t):
                    return None
            else:
                mapped = node.fn(t)
                if not isinstance(mapped, Tuple):
                    raise ConfigurationError(
                        f"map node {node.label!r} must return a Tuple, "
                        f"got {type(mapped)!r}"
                    )
                t = Tuple(key=mapped.key, tid=t.tid, source=side, payload=mapped.payload)
        return t

    def _wrap_result(self, result: JoinResult, side: str, state: _NodeState) -> Tuple:
        """Turn a child's result into a tuple for the parent join.

        The payload carries the full result, so lineage is recoverable
        at the plan root by unwrapping payloads.
        """
        key_fn = state.node.output_key
        key = result.key if key_fn is None else key_fn(result)
        tid = state.out_serial
        state.out_serial += 1
        return Tuple(key=key, tid=tid, source=side, payload=result)

    # -- bookkeeping -----------------------------------------------------------

    def _stop_reached(self) -> bool:
        return (
            self._stop_after is not None
            and self._root_state.recorder.count >= self._stop_after
        )


def _relabel(t: Tuple, side: str) -> Tuple:
    """A leaf tuple as the side it plays for its join."""
    if t.source == side:
        return t
    return Tuple(key=t.key, tid=t.tid, source=side, payload=t.payload)


class ResultStream:
    """Iterator over a streaming run's ``(result, event)`` pairs.

    What :func:`stream_plan` (and :func:`~repro.sim.engine.stream_join`)
    return: iterate it like a plain generator, with the run's context
    (journal, recorder, clock) attached so streaming consumers can
    read the event timeline without holding on to the driver
    themselves.
    """

    def __init__(self, driver: PlanExecutor) -> None:
        self._driver = driver
        self._iter = driver.stream()

    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self):
        return next(self._iter)

    @property
    def journal(self) -> SimulationJournal | None:
        """The structural-event timeline (when ``journal=True``)."""
        return self._driver.journal

    @property
    def recorder(self) -> MetricsRecorder:
        """The run's metrics recorder."""
        return self._driver.recorder

    @property
    def clock(self) -> VirtualClock:
        """The run's virtual clock."""
        return self._driver.clock


def run_plan(
    root: PlanNode,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    checks=None,
) -> PipelineResult:
    """Execute a plan tree and return the root's output metrics.

    With ``journal=True`` all nodes share one structural-event
    timeline (each entry's ``actor`` tells the nodes apart).  With a
    ``broker``, every resizable join node is bound under the broker's
    global memory grant and its schedule fires mid-run.
    ``batch_delivery=False`` forces per-event kernel dispatch; the
    observable results are identical either way.  ``checks=`` attaches
    per-node invariant checkers (:mod:`repro.testing.checks`) — pure
    observers, so the run's numbers are unchanged.
    """
    executor = PlanExecutor(
        root,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    # One-query session: the Query lifecycle replays exactly the step
    # sequence ``executor.run()`` always did (see repro.sim.query).
    from repro.sim.query import Query

    return Query(executor).run()


def stream_plan(
    root: PlanNode,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    checks=None,
) -> ResultStream:
    """Iterate a plan's root results as they are produced.

    The streaming counterpart of :func:`run_plan`, mirroring
    :func:`repro.sim.engine.stream_join`: yields ``(JoinResult,
    ResultEvent)`` pairs from the plan root, with the run's journal,
    recorder, and clock attached to the returned stream.
    """
    executor = PlanExecutor(
        root,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        journal=journal,
        broker=broker,
        checks=checks,
    )
    return ResultStream(executor)
