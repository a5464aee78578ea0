"""Plan-tree definitions for pipelined multi-join queries.

A plan is a binary tree: :class:`SourceLeaf` nodes wrap network
sources; :class:`JoinNode` nodes own a streaming join operator
(created fresh by a factory at execution time, so one plan description
can be executed many times).

Intermediate results need a join key for the *next* join up the tree:
``JoinNode.output_key`` maps each produced
:class:`~repro.storage.tuples.JoinResult` to that key.  The default
reuses the result's own key (a chain join on one attribute); star or
snowflake shapes pass an explicit function, typically reading the
payload of one side.

A leaf may wrap three kinds of stream: a plain
:class:`~repro.net.source.NetworkSource`, a per-consumer
:class:`~repro.net.source.SourceCursor` (several leaves sharing one
source — the plan stays a tree while the *data* is shared), or a
:class:`~repro.net.source.DisorderedSource` (out-of-order arrivals
re-ordered behind a watermark reorder buffer by the executor).  Two
leaves wrapping the *same* stream object would double-consume it, so
:func:`validate_plan` rejects that; share via ``source.cursor()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.errors import ConfigurationError
from repro.joins.base import StreamingJoinOperator
from repro.net.source import DisorderedSource, NetworkSource
from repro.storage.tuples import JoinResult, Tuple

PlanNode = Union["SourceLeaf", "JoinNode", "FilterNode", "MapNode"]
#: A node between a child and its parent join (see unwrap_transforms).
Transform = Union["FilterNode", "MapNode"]
#: A :class:`~repro.net.source.SourceCursor` is a ``NetworkSource``.
LeafSource = Union[NetworkSource, DisorderedSource]
KeyFn = Callable[[JoinResult], int]
OperatorFactory = Callable[[], StreamingJoinOperator]
PredicateFn = Callable[["Tuple"], bool]
MapFn = Callable[["Tuple"], "Tuple"]


@dataclass(slots=True)
class SourceLeaf:
    """A network source (or cursor, or disordered source) at the bottom."""

    source: LeafSource
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.source.name


@dataclass(slots=True)
class FilterNode:
    """A selection between a child and its parent join.

    ``predicate`` sees each tuple flowing up (already labelled with the
    side it plays) and returns False to drop it — a pipelined WHERE
    clause that never blocks.
    """

    child: PlanNode
    predicate: PredicateFn
    label: str = "filter"

    def __post_init__(self) -> None:
        if not callable(self.predicate):
            raise ConfigurationError("predicate must be callable")


@dataclass(slots=True)
class MapNode:
    """A per-tuple rewrite between a child and its parent join.

    ``fn`` may change the tuple's ``key`` (a re-keying projection) and
    ``payload``; the executor re-imposes the original ``tid`` and side
    label afterwards, so identity and uniqueness guarantees survive
    arbitrary user functions.
    """

    child: PlanNode
    fn: MapFn
    label: str = "map"

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise ConfigurationError("fn must be callable")


@dataclass(slots=True)
class JoinNode:
    """A streaming join over two child subplans.

    Attributes:
        left: Child feeding this join's A side.
        right: Child feeding this join's B side.
        operator_factory: Builds a fresh unbound operator per execution.
        output_key: Join key of each produced result, as seen by the
            parent join.  ``None`` means "reuse the result's own key".
        label: Human-readable name used in per-node statistics.
    """

    left: PlanNode
    right: PlanNode
    operator_factory: OperatorFactory
    output_key: KeyFn | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not callable(self.operator_factory):
            raise ConfigurationError("operator_factory must be callable")
        if self.output_key is not None and not callable(self.output_key):
            raise ConfigurationError("output_key must be callable or None")


@dataclass(slots=True)
class _Counter:
    value: int = 0


def leaf(source: LeafSource, label: str = "") -> SourceLeaf:
    """Wrap a network source (or cursor, or disordered source) as a leaf."""
    return SourceLeaf(source=source, label=label)


def join(
    left: PlanNode,
    right: PlanNode,
    operator_factory: OperatorFactory,
    output_key: KeyFn | None = None,
    label: str = "",
) -> JoinNode:
    """Build a join node over two subplans."""
    return JoinNode(
        left=left,
        right=right,
        operator_factory=operator_factory,
        output_key=output_key,
        label=label,
    )


def select(child: PlanNode, predicate: PredicateFn, label: str = "filter") -> FilterNode:
    """Build a pipelined selection over a subplan."""
    return FilterNode(child=child, predicate=predicate, label=label)


def transform(child: PlanNode, fn: MapFn, label: str = "map") -> MapNode:
    """Build a pipelined per-tuple rewrite over a subplan."""
    return MapNode(child=child, fn=fn, label=label)


def unwrap_transforms(node: PlanNode) -> tuple[PlanNode, list[Transform]]:
    """Follow a transform chain down to its leaf or join.

    Returns ``(target, chain)`` with the chain ordered top-down (the
    first element is closest to the parent join); data flowing upward
    is passed through the chain in reverse.
    """
    chain: list[Transform] = []
    while isinstance(node, (FilterNode, MapNode)):
        chain.append(node)
        node = node.child
    return node, chain


def validate_plan(root: PlanNode) -> list[JoinNode]:
    """Check tree shape and return the join nodes in bottom-up order.

    Rejects: a bare leaf as a plan (nothing to execute), any node object
    appearing twice (the "tree" would be a DAG and the operators'
    single-bind lifecycle breaks), two leaves consuming the same stream
    object (share a source via per-consumer cursors instead), and
    unlabeled duplicates are given positional labels.
    """
    if not isinstance(root, JoinNode):
        raise ConfigurationError(
            "the plan root must be a join (wrap filters/maps below a join)"
        )
    seen: set[int] = set()
    seen_sources: set[int] = set()
    joins: list[JoinNode] = []
    counter = _Counter()

    def visit(node: PlanNode) -> None:
        if id(node) in seen:
            raise ConfigurationError(
                "plan nodes may appear only once (shared subtrees are not supported)"
            )
        seen.add(id(node))
        if isinstance(node, JoinNode):
            visit(node.left)
            visit(node.right)
            if not node.label:
                node.label = f"join{counter.value}"
            counter.value += 1
            joins.append(node)
        elif isinstance(node, (FilterNode, MapNode)):
            visit(node.child)
        elif isinstance(node, SourceLeaf):
            if id(node.source) in seen_sources:
                raise ConfigurationError(
                    f"leaf {node.label!r} consumes a stream another leaf "
                    "already consumes; share a source through per-consumer "
                    "cursors (NetworkSource.cursor()) instead"
                )
            seen_sources.add(id(node.source))
            if node.source.exhausted and len(node.source) > 0:
                raise ConfigurationError(
                    f"leaf {node.label!r} wraps an already-consumed source"
                )
        else:
            raise ConfigurationError(f"unknown plan node type {type(node)!r}")

    visit(root)
    return joins


def collect_leaves(root: PlanNode) -> list[SourceLeaf]:
    """All leaves of the plan, left-to-right."""
    if isinstance(root, SourceLeaf):
        return [root]
    if isinstance(root, (FilterNode, MapNode)):
        return collect_leaves(root.child)
    return collect_leaves(root.left) + collect_leaves(root.right)
