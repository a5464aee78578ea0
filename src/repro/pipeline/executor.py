"""Execution engine for pipelined multi-join plans.

Generalises :class:`repro.sim.engine.JoinSimulation` from one join over
two sources to a tree of joins over any number of leaves, as a second
adapter on the shared :class:`~repro.sim.scheduler.EventScheduler`
kernel:

* one shared virtual clock and cost model across the whole plan;
* one disk and one recorder *per join node* (operators keep their
  private spill partitions; per-node I/O remains attributable);
* every result a node produces is wrapped as a side-labelled tuple and
  pushed into its parent operator immediately — full pipelining;
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
from repro.sim.engine import ResultStream
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
        self._root = root
        self._states: dict[int, _NodeState] = {}
        for node in self._joins:
            is_root = node is root
            disk = SimulatedDisk(self.clock, self._costs)
            # Non-root nodes must retain results to feed their parents.
            recorder = MetricsRecorder(
                self.clock, disk, keep_results=keep_results or not is_root
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
            # Armed only when an early stop is configured — see
            # SimulationEngine: a live predicate forces synchronous
            # per-result emission in the columnar merge path.
            stop_when=(
                self._stop_reached if stop_after is not None else None
            ),
            journal=self.journal,
        )
        # All leaves share one batch group without a callback: the
        # kernel replays each merged run of leaf arrivals per tuple
        # (results must cascade upward immediately), but its heap
        # round-trips are amortised.  Disordered leaves are not kernel
        # streams at all — their tuples arrive through a reorder
        # buffer's punctuation timers in event order at e_i + B.
        group = self.scheduler.add_batch_group()
        self._buffers: list[ReorderBuffer] = []
        for leaf, node, side, chain in self._leaves:
            if isinstance(leaf.source, DisorderedSource):
                buffer = ReorderBuffer(
                    leaf.source,
                    self._release_into(node, side, chain),
                    label=leaf.label,
                )
                buffer.install(self.scheduler)
                self._buffers.append(buffer)
                continue
            self.scheduler.add_stream(
                leaf.source.peek_time,
                self._deliver_from(leaf, node, side, chain),
                times=leaf.source.pending_times_array,
                group=group,
            )
        self.scheduler.batching = bool(batch_delivery)
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
            # conformance layer.  Plan nodes join manufactured tuples
            # (relabelled sides, synthetic tids), so the arrival-based
            # causality check only applies at the two-source engine;
            # every other invariant is watched per node.
            from repro.testing.checks import coerce_checks

            self._checks = coerce_checks(checks)
            watched = []
            for node in self._joins:
                state = self._states[id(node)]
                self._checks.watch_recorder(state.recorder, node.label)
                watched.append((node.label, state.operator))
            self._checks.watch_kernel(self.scheduler, self.clock, watched)

    # -- public API ---------------------------------------------------------

    @property
    def recorder(self) -> MetricsRecorder:
        """The root join's recorder (the plan's output stream)."""
        return self._root_state.recorder

    def _finalize_checks(self, completed: bool) -> None:
        if self._checks is not None:
            self._checks.finalize(
                [
                    (node.label, self._states[id(node)].operator)
                    for node in self._joins
                ],
                self.clock,
                completed,
            )

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
        """Run the bottom-up cleanup and finalise checks; True if completed."""
        self._finish_all()
        completed = not self._stop_reached()
        self._finalize_checks(completed)
        return completed

    def build_result(self, completed: bool) -> PipelineResult:
        """Snapshot the run's outcome object."""
        return self._result(completed)

    def run(self) -> PipelineResult:
        """Execute the plan."""
        if not self.scheduler.run():
            return self._result(completed=False)
        return self._result(completed=self.finish_run())

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
            self._finish_all()
            self._finalize_checks(completed=not self._stop_reached())
            yield from drain()

    # -- kernel participants ------------------------------------------------

    def _deliver_from(self, leaf: SourceLeaf, node: JoinNode, side: str, chain):
        def deliver() -> None:
            _, raw = leaf.source.pop()
            wrapped = self._apply_chain(chain, self._wrap_leaf_tuple(raw, side), side)
            if wrapped is not None:
                self._deliver(node, wrapped)

        return deliver

    def _release_into(self, node: JoinNode, side: str, chain):
        """Reorder-buffer release callback: tuple in, cascade upward."""

        def release(raw: Tuple) -> None:
            wrapped = self._apply_chain(chain, self._wrap_leaf_tuple(raw, side), side)
            if wrapped is not None:
                self._deliver(node, wrapped)

        return release

    @property
    def reorder_buffers(self) -> list[ReorderBuffer]:
        """The installed reorder buffers (empty for in-order plans)."""
        return self._buffers

    def _worker_for(self, state: _NodeState):
        def run_blocked(budget) -> None:
            state.operator.on_blocked(budget)
            self._pump(state.node)

        return run_blocked

    def _finish_all(self) -> None:
        """Finish joins bottom-up, flowing final results into parents."""
        for node in self._joins:
            if self._stop_reached():
                return
            state = self._states[id(node)]
            state.operator.finish(self.scheduler.unbounded_budget())
            self._pump(node)

    # -- result propagation ----------------------------------------------------

    def _deliver(self, node: JoinNode, t: Tuple) -> None:
        state = self._states[id(node)]
        state.operator.on_tuple(t)
        self._pump(node)

    def _pump(self, node: JoinNode) -> None:
        """Push any fresh results of ``node`` up the tree, cascading."""
        current: JoinNode | None = node
        while current is not None:
            state = self._states[id(current)]
            fresh = state.recorder.results_since(state.consumed)
            state.consumed += len(fresh)
            if not fresh or state.parent is None:
                return
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

    def _wrap_leaf_tuple(self, t: Tuple, side: str) -> Tuple:
        """Relabel a leaf tuple to the side it plays for its join."""
        if t.source == side:
            return t
        return Tuple(key=t.key, tid=t.tid, source=side, payload=t.payload)

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

    def _result(self, completed: bool) -> PipelineResult:
        stats = [
            NodeStats(
                label=self._states[id(node)].node.label,
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
    batch_delivery: bool = True,
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
        batch_delivery=batch_delivery,
        checks=checks,
    )
    return ResultStream(executor)
