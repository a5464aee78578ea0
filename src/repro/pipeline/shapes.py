"""Plan-shape builders: chain, star, and bushy n-way join trees.

One workload — ``n`` relations joined on a single attribute — admits
many physical plan shapes, and which shape reaches the k-th result
first is exactly the join-ordering question the plans bench sweeps:

* **chain** — the left-deep ladder ``((s0 ⋈ s1) ⋈ s2) ⋈ ...``: every
  intermediate result climbs one rung per extra relation;
* **star** — one *shared hub* relation joined against every spoke
  through per-consumer cursors (``hub ⋈ spoke_i`` branches), the
  branches then combined left-deep.  The hub's stream is materialised
  once and read by several leaves — the plan stays a tree while the
  data is shared;
* **bushy** — a balanced tree: leaves are paired, pairs are joined,
  and so on up, halving the tree height versus the chain.

Builders take *stream* objects (a :class:`~repro.net.source.NetworkSource`,
:class:`~repro.net.source.SourceCursor`, or
:class:`~repro.net.source.DisorderedSource` per relation) and an
operator factory, and return the plan root for
:func:`~repro.pipeline.executor.run_plan`.

:func:`build_sources` materialises the matching source list for a
shape from relations and an arrival process, optionally wrapping every
non-hub stream in bounded disorder — with :func:`ordered_twin` giving
the in-order oracle whose determinism triple a disordered run must
match byte-identically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.arrival import ArrivalProcess, BoundedDisorder
from repro.net.source import DisorderedSource, NetworkSource
from repro.pipeline.plan import JoinNode, OperatorFactory, PlanNode, join, leaf
from repro.storage.tuples import Relation

PLAN_SHAPES = ("chain", "star", "bushy")


def chain_plan(
    sources: Sequence,
    factory: OperatorFactory,
    label_prefix: str = "chain",
) -> JoinNode:
    """The left-deep ladder ``((s0 ⋈ s1) ⋈ s2) ⋈ ...``."""
    if len(sources) < 2:
        raise ConfigurationError(
            f"a chain plan needs >= 2 sources, got {len(sources)}"
        )
    node = join(
        leaf(sources[0]), leaf(sources[1]), factory, label=f"{label_prefix}0"
    )
    for i, src in enumerate(sources[2:], start=1):
        node = join(node, leaf(src), factory, label=f"{label_prefix}{i}")
    return node


def star_plan(
    sources: Sequence,
    factory: OperatorFactory,
    label_prefix: str = "star",
) -> JoinNode:
    """One shared hub joined against every spoke, branches combined.

    ``sources[0]`` is the hub and must expose ``cursor()`` (a
    :class:`~repro.net.source.NetworkSource`): each ``hub ⋈ spoke_i``
    branch reads the hub through its own per-consumer cursor, so the
    hub's relation and schedule are materialised once and shared.  The
    branches are then combined left-deep on the same key.
    """
    if len(sources) < 3:
        raise ConfigurationError(
            f"a star plan needs >= 3 sources (hub + 2 spokes), got {len(sources)}"
        )
    hub = sources[0]
    if not hasattr(hub, "cursor"):
        raise ConfigurationError(
            "the star hub must be shareable (expose .cursor()); "
            "disordered hubs are not supported"
        )
    branches = [
        join(
            leaf(hub.cursor(label=f"{hub.name}#{i}")),
            leaf(spoke),
            factory,
            label=f"{label_prefix}-branch{i}",
        )
        for i, spoke in enumerate(sources[1:])
    ]
    node: JoinNode = branches[0]
    for i, branch in enumerate(branches[1:]):
        node = join(node, branch, factory, label=f"{label_prefix}-combine{i}")
    return node


def bushy_plan(
    sources: Sequence,
    factory: OperatorFactory,
    label_prefix: str = "bushy",
) -> JoinNode:
    """A balanced tree: pair the leaves, join the pairs, repeat."""
    if len(sources) < 2:
        raise ConfigurationError(
            f"a bushy plan needs >= 2 sources, got {len(sources)}"
        )
    level: list[PlanNode] = [leaf(src) for src in sources]
    depth = 0
    while len(level) > 1:
        paired: list[PlanNode] = []
        for i in range(0, len(level) - 1, 2):
            node = join(
                level[i],
                level[i + 1],
                factory,
                label=f"{label_prefix}-d{depth}-{i // 2}",
            )
            paired.append(node)
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
        depth += 1
    # The last level pairs its only two nodes: the last join built is
    # the root.
    return node


_BUILDERS = {"chain": chain_plan, "star": star_plan, "bushy": bushy_plan}


def build_plan(
    shape: str,
    sources: Sequence,
    factory: OperatorFactory,
) -> JoinNode:
    """Build the named shape over the given sources."""
    if shape not in _BUILDERS:
        raise ConfigurationError(
            f"unknown plan shape {shape!r} (choose from {PLAN_SHAPES})"
        )
    return _BUILDERS[shape](sources, factory)


def make_plan_relations(
    n_sources: int,
    n_per_source: int,
    key_range: int,
    seed: int = 7,
) -> list[Relation]:
    """``n_sources`` uniform-key relations with derived per-relation seeds.

    Sides alternate A/B (the executor relabels leaf tuples to the side
    they play anyway); names are ``R0..R{n-1}``.
    """
    if n_sources < 2:
        raise ConfigurationError(f"need >= 2 relations, got {n_sources}")
    if n_per_source < 1 or key_range < 1:
        raise ConfigurationError("n_per_source and key_range must be >= 1")
    relations = []
    for i in range(n_sources):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        keys = rng.integers(0, key_range, size=n_per_source)
        side = "A" if i % 2 == 0 else "B"
        relations.append(
            Relation.from_keys(
                keys, source=side, name=f"R{i}", key_range=key_range
            )
        )
    return relations


def build_sources(
    relations: Sequence[Relation],
    arrivals: ArrivalProcess,
    seed: int = 7,
    disorder: BoundedDisorder | None = None,
    shape: str = "chain",
) -> list:
    """Per-relation streams for a shape, optionally with bounded disorder.

    Relation ``i`` gets source seed ``seed + i`` and, when ``disorder``
    is given, a per-relation jitter seed derived the same way — except
    a star hub (``relations[0]``), which stays an in-order
    :class:`NetworkSource`: shared cursors read one materialised
    schedule, and disorder applies to the network legs (the spokes).
    """
    sources: list = []
    for i, relation in enumerate(relations):
        keep_ordered = disorder is None or (shape == "star" and i == 0)
        if keep_ordered:
            sources.append(NetworkSource(relation, arrivals, seed=seed + i))
        else:
            per_leaf = BoundedDisorder(
                disorder.slack, seed=disorder.seed + i, bound=disorder.bound
            )
            sources.append(
                DisorderedSource(relation, arrivals, per_leaf, seed=seed + i)
            )
    return sources


def ordered_twin(sources: Sequence) -> list:
    """The in-order oracle sources for a (possibly disordered) list.

    Disordered entries are replaced by their
    :meth:`~repro.net.source.DisorderedSource.ordered_source` twin
    (release schedule ``e_i + B`` as a plain stream); in-order entries
    are passed through unchanged — callers sharing a hub must build
    fresh source lists per run, since streams are single-consumption.
    """
    return [
        src.ordered_source() if isinstance(src, DisorderedSource) else src
        for src in sources
    ]
