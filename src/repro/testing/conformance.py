"""The conformance matrix and its CLI.

``python -m repro.testing.conformance`` runs every streaming operator
(HMJ, XJoin, PMJ, DPHJ, ripple, symmetric hash) against the blocking
:func:`~repro.joins.blocking.hash_join` oracle across the six figure
workloads (Figures 9-14's arrival regimes, memory budgets, thresholds,
and early stop), through both kernel delivery paths (per-event and
batched — column arrays for operators with a columnar path, boxed
tuples replayed through ``on_tuple`` otherwise), with the full
in-engine invariant-checker suite attached in collect mode.  The
sort-merge family (HMJ, PMJ, skew-adaptive HMJ) additionally re-runs
each batched cell on the scalar merge oracle
(:mod:`repro.testing.scalar_merge`) and must reproduce its triple
exactly.  The default ("full") matrix additionally re-runs every
resize-capable operator under a :class:`~repro.sim.broker.
ResourceBroker` shrink/grow memory schedule; ``--quick`` skips the
resize axis (the reduced matrix CI runs).  A ``--skew-theta`` axis
appends Zipf workloads (θ=0 is the exact uniform limit) on which
baseline HMJ and the skew-adaptive configuration (heat-ranked flushing
plus hot-group sub-splits) both run against the oracle — adaptivity on
and off must conform under genuine skew.

A ``--plan-shape`` axis adds n-way plan cells (chain, star, bushy —
see :mod:`repro.pipeline.shapes`) crossed with the delivery paths.
Each plan cell runs three times: an in-order run diffed against a
key-wise counting oracle, a bounded-disorder run whose leaves arrive
out of order behind watermark reorder buffers, and the disordered
run's release-schedule twin — the disordered
triple must equal the twin's byte for byte (the star hub is shared
through per-consumer cursors, so the axis also certifies shared
sources).

The CLI prints one line per cell, writes a JSON violation report, and
exits nonzero if any cell violated an invariant or diverged from the
oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

from repro.bench.figures import BLOCKING_T, _bursty
from repro.bench.scale import BenchScale
from repro.core.config import HMJConfig
from repro.core.flushing import FlushColdestPolicy
from repro.core.hmj import HashMergeJoin
from repro.joins.dphj import DoublePipelinedHashJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.ripple import RippleJoin
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import BoundedDisorder, ConstantRate, PoissonArrival
from repro.net.source import NetworkSource
from repro.pipeline.executor import run_plan
from repro.pipeline.plan import JoinNode, PlanNode, SourceLeaf
from repro.pipeline.shapes import (
    PLAN_SHAPES,
    build_plan,
    build_sources,
    make_plan_relations,
    ordered_twin,
)
from repro.sim.broker import ResourceBroker
from repro.sim.engine import run_join
from repro.testing.checks import InvariantChecks
from repro.testing.oracle import compare_with_oracle
from repro.testing.scalar_merge import (
    ScalarMergeHashMergeJoin,
    ScalarMergeProgressiveMergeJoin,
)
from repro.workloads.generator import make_relation_pair

#: The sort-merge family's classes per merging-phase implementation:
#: merge path -> (HMJ class, PMJ class).  ``"scalar"`` selects the
#: variants whose merging phase runs the scalar oracle pass.
SORT_MERGE_CLASSES: dict[str, tuple[type, type]] = {
    "scalar": (ScalarMergeHashMergeJoin, ScalarMergeProgressiveMergeJoin),
    "columnar": (HashMergeJoin, ProgressiveMergeJoin),
}

#: Merging-phase implementations the ``merge_path`` axis selects from.
MERGE_PATH_CHOICES = tuple(SORT_MERGE_CLASSES)

#: operator name -> factory(memory_budget, scale) -> fresh unbound
#: operator.  Ripple and SHJ have no spill path, so they run without a
#: budget (a budget would abort the run instead of flushing); ripple
#: additionally needs the relation sizes for its estimator.  The
#: sort-merge family's factories also take a ``merge_path`` (a
#: :data:`SORT_MERGE_CLASSES` key).
OPERATORS = {
    "hmj": lambda memory, scale, merge_path="columnar": SORT_MERGE_CLASSES[
        merge_path
    ][0](HMJConfig(memory_capacity=memory)),
    "xjoin": lambda memory, scale: XJoin(memory_capacity=memory),
    "pmj": lambda memory, scale, merge_path="columnar": SORT_MERGE_CLASSES[
        merge_path
    ][1](memory_capacity=memory),
    "dphj": lambda memory, scale: DoublePipelinedHashJoin(memory_capacity=memory),
    "ripple": lambda memory, scale: RippleJoin(
        n_a=scale.spec.n_a, n_b=scale.spec.n_b
    ),
    "shj": lambda memory, scale: SymmetricHashJoin(),
    # The skew-adaptive HMJ configuration (heat-ranked flushing plus
    # hot-group sub-splits).  Not part of the default operator set —
    # it runs on the skew workloads (the ``--skew-theta`` axis), paired
    # with baseline "hmj" so the matrix certifies adaptivity on *and*
    # off against the same oracle.
    "hmj-skew": lambda memory, scale, merge_path="columnar": SORT_MERGE_CLASSES[
        merge_path
    ][0](
        HMJConfig(
            memory_capacity=memory,
            policy=FlushColdestPolicy(),
            hot_split_factor=4,
        )
    ),
}

#: The sort-merge family — the merge-path conformance axis only
#: applies to these (the hash family has no merging phase).
MERGE_PATH_OPERATORS = ("hmj", "pmj", "hmj-skew")

#: The operators the matrix runs by default (everything except the
#: skew-axis variant, which only makes sense on skew workloads).
DEFAULT_OPERATORS = tuple(name for name in OPERATORS if name != "hmj-skew")

#: The fixed operator pair every skew workload runs: adaptivity off / on.
SKEW_OPERATORS = ("hmj", "hmj-skew")

#: Operators that advertise ``supports_memory_resize`` (the broker
#: refuses the others), i.e. the resize axis of the full matrix.
RESIZABLE = ("hmj", "xjoin", "pmj", "dphj", "hmj-skew")

#: Operators whose runs use the workload memory budget at all.
BUDGETED = RESIZABLE

#: The delivery axis, shared by single joins and plans: label -> the
#: driver's ``batch_delivery`` switch.  Batched one-join plans — every
#: single join — hand each run to ``on_column_batch`` (operators
#: without an array path box it and replay ``on_tuple``); deeper plans,
#: and any run with ``stop_after`` armed, take per-event kernel steps.
DELIVERY_PATHS: dict[str, bool] = {"batched": True, "per-event": False}

#: Relations per plan cell (4 exercises every shape: a 3-rung chain, a
#: hub with three shared cursors, a two-level bushy tree).
PLAN_N_WAY = 4

#: Bounded-disorder slack/watermark bound for the plan cells' jittered
#: runs, in virtual seconds.
PLAN_SLACK = 0.02

#: Blocking threshold for plan cells — small enough that disordered
#: release gaps open background windows.
PLAN_BLOCKING_T = 0.1


def workload_cases(scale: BenchScale) -> dict[str, dict]:
    """The six figure workloads, keyed by figure name.

    Each value holds arrival-process factories plus the run kwargs
    that distinguish the figure: Figures 9-11 join fast reliable
    streams, Figure 12 slows one source 5x, Figure 13 stops at the
    scaled first-k threshold on a tight budget, and Figure 14 runs
    bursty sources under the small blocking threshold ``T``.
    """
    fast = lambda: ConstantRate(scale.fast_rate)  # noqa: E731
    slow = lambda: ConstantRate(scale.fast_rate / 5.0)  # noqa: E731
    burst = lambda: _bursty(scale)  # noqa: E731
    memory = scale.spec.memory_capacity()
    return {
        "fig09": {"arrival_a": fast, "arrival_b": fast, "memory": memory},
        "fig10": {"arrival_a": fast, "arrival_b": fast, "memory": memory},
        "fig11": {"arrival_a": fast, "arrival_b": fast, "memory": memory},
        "fig12": {"arrival_a": fast, "arrival_b": slow, "memory": memory},
        "fig13": {
            "arrival_a": fast,
            "arrival_b": fast,
            "memory": scale.spec.memory_capacity(0.10),
            "stop_after": scale.first_k(1000),
        },
        "fig14": {
            "arrival_a": burst,
            "arrival_b": burst,
            "memory": memory,
            "blocking_threshold": BLOCKING_T,
        },
    }


def skew_workload_cases(
    scale: BenchScale, thetas: tuple[float, ...]
) -> dict[str, dict]:
    """The ``--skew-theta`` axis: one Zipf workload per exponent.

    Each case carries an explicit :class:`~repro.workloads.generator.
    WorkloadSpec` (a ``"spec"`` key) overriding the scale's uniform
    Section 6 spec; θ=0 is the exact uniform limit, higher θ
    concentrates arrivals on few key groups.  These workloads run the
    fixed :data:`SKEW_OPERATORS` pair — baseline HMJ and the
    skew-adaptive configuration — so both must match the oracle under
    genuine skew.
    """
    fast = lambda: ConstantRate(scale.fast_rate)  # noqa: E731
    cases = {}
    for theta in thetas:
        spec = replace(
            scale.spec, distribution="zipf", zipf_theta=float(theta)
        )
        cases[f"skew-t{theta:g}"] = {
            "arrival_a": fast,
            "arrival_b": fast,
            "memory": spec.memory_capacity(),
            "spec": spec,
            "skew": True,
        }
    return cases


@dataclass(slots=True)
class CellOutcome:
    """One executed cell of the conformance matrix.

    In tenant mode (``tenants > 1``) the triple columns hold the
    *sums* over tenants and ``resize`` means an aggregate session
    memory shrink/restore instead of a per-run broker schedule.
    """

    workload: str
    operator: str
    delivery: str  # "batched" | "per-event" | "session"
    resize: bool
    count: int
    clock: float
    io: int
    wall_s: float
    violations: list[str] = field(default_factory=list)
    tenants: int = 1
    # Which merging-phase implementation the cell ran on ("scalar" or
    # "columnar"); operators without the knob always report "columnar".
    merge_path: str = "columnar"

    @property
    def ok(self) -> bool:
        return not self.violations


def run_cell(
    scale: BenchScale,
    workload: str,
    case: dict,
    operator: str,
    delivery: str,
    resize: bool,
    merge_path: str = "columnar",
) -> CellOutcome:
    """Execute one (workload, operator, delivery, resize) cell."""
    batch_delivery = DELIVERY_PATHS[delivery]
    rel_a, rel_b = make_relation_pair(case.get("spec", scale.spec))
    source_a = NetworkSource(rel_a, case["arrival_a"](), seed=11)
    source_b = NetworkSource(rel_b, case["arrival_b"](), seed=22)
    memory = case["memory"]
    stop_after = case.get("stop_after")
    broker = None
    if resize:
        # Shrink to a quarter of the grant a third of the way through
        # the arrival window, restore near the end: both transitions
        # land while tuples are still streaming.
        last = max(source_a.pending_times()[0][-1], source_b.pending_times()[0][-1])
        low = max(4, memory // 4)
        broker = ResourceBroker([(0.3 * last, low), (0.7 * last, memory)])
    if operator in MERGE_PATH_OPERATORS:
        op = OPERATORS[operator](memory, scale, merge_path)
    else:
        op = OPERATORS[operator](memory, scale)
    checks = InvariantChecks(mode="collect")
    start = time.perf_counter()
    result = run_join(
        source_a,
        source_b,
        op,
        blocking_threshold=case.get("blocking_threshold", 1.0),
        stop_after=stop_after,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    wall = time.perf_counter() - start
    violations = [v.render() for v in checks.violations]
    violations += compare_with_oracle(
        result.results,
        rel_a,
        rel_b,
        operator_name=operator,
        partial=stop_after is not None,
    )
    if stop_after is not None and result.count < stop_after and result.completed:
        # A completed early-stop run produced the whole join; it must
        # then match the oracle exactly, which the partial check above
        # does not enforce — re-diff without the partial waiver.
        violations += compare_with_oracle(
            result.results, rel_a, rel_b, operator_name=operator
        )
    count, clock, io = result.recorder.triple()
    return CellOutcome(
        workload=workload,
        operator=operator,
        delivery=delivery,
        resize=resize,
        count=count,
        clock=clock,
        io=io,
        wall_s=wall,
        violations=violations,
        merge_path=merge_path if operator in MERGE_PATH_OPERATORS else "columnar",
    )


def plan_key_counter(node: PlanNode) -> Counter:
    """Key-wise result counts of an equi-join plan, by pure counting.

    A leaf contributes its relation's key histogram; a join node
    multiplies its children's counts key by key (every left tuple with
    key ``k`` pairs with every right tuple with key ``k``, and the
    result keeps the key).  The total at the root is the exact result
    count of the plan — independent of operators, timing, and shape
    internals, so it oracles every shape the builders produce.
    """
    if isinstance(node, SourceLeaf):
        return Counter(t.key for t in node.source.relation.tuples)
    if not isinstance(node, JoinNode):
        raise ValueError(
            f"plan oracle only counts leaf/join trees, got {type(node).__name__}"
        )
    left = plan_key_counter(node.left)
    right = plan_key_counter(node.right)
    return Counter(
        {k: left[k] * right[k] for k in left.keys() & right.keys()}
    )


def run_plan_cell(
    scale: BenchScale,
    shape: str,
    delivery: str,
    slack: float = PLAN_SLACK,
) -> CellOutcome:
    """Execute one (plan shape, delivery) cell: three runs, one verdict.

    1. An **in-order** run with collecting invariant checks, diffed
       against :func:`plan_key_counter`'s exact count.
    2. The disordered run's **release-schedule twin**: every leaf's
       in-order stream over ``e_i + B`` (the star hub stays shared).
    3. The **disordered** run: leaves jittered out of order by up to
       ``slack`` seconds, re-sequenced behind watermark reorder
       buffers.  Its ``(count, clock, io)`` triple must equal the
       twin's byte for byte, its count must match the oracle, and its
       invariant checks must stay clean.

    The reported triple is the disordered run's.
    """
    batch_delivery = DELIVERY_PATHS[delivery]
    relations = make_plan_relations(
        PLAN_N_WAY,
        scale.n_per_source,
        2 * scale.n_per_source,
        seed=scale.seed,
    )
    memory = scale.spec.memory_capacity()
    arrival = PoissonArrival(scale.fast_rate)
    disorder = BoundedDisorder(slack, seed=scale.seed + 31)

    def factory():
        return OPERATORS["hmj"](memory, scale)

    def sources(jittered: bool) -> list:
        # Fresh streams per run (single consumption); identical seeds
        # make every build's schedule bit-equal.
        return build_sources(
            relations,
            arrival,
            seed=scale.seed,
            disorder=disorder if jittered else None,
            shape=shape,
        )

    def execute(source_list: list, checks=None):
        return run_plan(
            build_plan(shape, source_list, factory),
            blocking_threshold=PLAN_BLOCKING_T,
            keep_results=False,
            batch_delivery=batch_delivery,
            checks=checks,
        )

    start = time.perf_counter()
    violations: list[str] = []
    expected = sum(plan_key_counter(build_plan(shape, sources(False), factory)).values())

    ordered_checks = InvariantChecks(mode="collect")
    ordered = execute(sources(False), checks=ordered_checks)
    violations += [f"in-order: {v.render()}" for v in ordered_checks.violations]
    if ordered.count != expected:
        violations.append(
            f"in-order plan count {ordered.count} != key-wise oracle {expected}"
        )

    twin = execute(ordered_twin(sources(True)))
    disordered_checks = InvariantChecks(mode="collect")
    disordered = execute(sources(True), checks=disordered_checks)
    violations += [
        f"disordered: {v.render()}" for v in disordered_checks.violations
    ]
    if disordered.count != expected:
        violations.append(
            f"disordered plan count {disordered.count} "
            f"!= key-wise oracle {expected}"
        )
    ours = (disordered.count, disordered.clock.now, disordered.total_io)
    theirs = (twin.count, twin.clock.now, twin.total_io)
    if ours != theirs:
        violations.append(
            f"watermark divergence: disordered triple {ours} "
            f"!= release-schedule twin triple {theirs}"
        )
    wall = time.perf_counter() - start
    return CellOutcome(
        workload=f"plan-{shape}",
        operator="hmj",
        delivery=delivery,
        resize=False,
        count=ours[0],
        clock=ours[1],
        io=ours[2],
        wall_s=wall,
        violations=violations,
    )


def run_cell_tenants(
    scale: BenchScale,
    workload: str,
    case: dict,
    operator: str,
    resize: bool,
    tenants: int,
) -> CellOutcome:
    """Execute one cell as ``tenants`` concurrent queries on a session.

    Every tenant runs the cell's workload with its own derived seed
    and its own collecting checker, all sharing one fair-share
    aggregate memory budget of ``tenants`` times the per-run grant.
    Each tenant's output is diffed against *its own* blocking-join
    oracle; without the resize axis the budget is sufficient, so each
    tenant's ``(count, clock, io)`` triple must additionally equal its
    solo run — the session's isolation invariant becomes a conformance
    check.  With ``resize`` the aggregate is revoked to a quarter a
    third of the way through the arrival window and restored at 70%
    (fig. 13(d) for the whole machine); oracle and invariant checks
    still apply, solo-equality cannot (shares genuinely shrink).
    """
    from repro.service.session import QuerySession
    from repro.sim.engine import JoinSimulation
    from repro.sim.query import Query
    from repro.testing.checks import merged_violations

    memory = case["memory"]
    stop_after = case.get("stop_after")
    aggregate = tenants * memory

    def build_sim(tenant_scale: BenchScale, checks=None):
        # Tenants derive their workload from the case's spec (skew
        # cases override the scale's uniform one) with their own seed.
        spec = replace(
            case.get("spec", tenant_scale.spec), seed=tenant_scale.seed
        )
        rel_a, rel_b = make_relation_pair(spec)
        source_a = NetworkSource(rel_a, case["arrival_a"](), seed=11)
        source_b = NetworkSource(rel_b, case["arrival_b"](), seed=22)
        sim = JoinSimulation(
            source_a,
            source_b,
            OPERATORS[operator](memory, tenant_scale),
            blocking_threshold=case.get("blocking_threshold", 1.0),
            stop_after=stop_after,
            checks=checks,
        )
        return sim, rel_a, rel_b, source_a, source_b

    tenant_scales = [
        BenchScale(n_per_source=scale.n_per_source, seed=scale.seed + 101 * i)
        for i in range(tenants)
    ]
    start = time.perf_counter()
    session = QuerySession(memory=aggregate)
    queries = []
    rels = []
    checkers = []
    last_arrival = 0.0
    for i, tenant_scale in enumerate(tenant_scales):
        checks = InvariantChecks(mode="collect")
        sim, rel_a, rel_b, source_a, source_b = build_sim(tenant_scale, checks)
        last_arrival = max(
            last_arrival,
            source_a.pending_times()[0][-1],
            source_b.pending_times()[0][-1],
        )
        queries.append(session.submit(Query(sim, query_id=f"tenant-{i}")))
        rels.append((rel_a, rel_b))
        checkers.append((f"tenant-{i}", checks))
    if resize:
        session.schedule_memory(
            [
                (0.3 * last_arrival, max(4, aggregate // 4)),
                (0.7 * last_arrival, aggregate),
            ]
        )
    session.run()
    wall = time.perf_counter() - start

    violations = merged_violations(checkers)
    for i, (query, (rel_a, rel_b)) in enumerate(zip(queries, rels)):
        tag = f"tenant-{i}"
        result = query.result
        tenant_violations = compare_with_oracle(
            result.results,
            rel_a,
            rel_b,
            operator_name=operator,
            partial=stop_after is not None,
        )
        if stop_after is not None and result.count < stop_after and result.completed:
            tenant_violations += compare_with_oracle(
                result.results, rel_a, rel_b, operator_name=operator
            )
        violations += [f"{tag}: {v}" for v in tenant_violations]
    if not resize:
        # Sufficient aggregate memory: the fair-share split caps at
        # each tenant's request, so every grant is a no-op and each
        # tenant must reproduce its solo triple exactly.
        for i, tenant_scale in enumerate(tenant_scales):
            solo, _, _, _, _ = build_sim(tenant_scale)
            solo_triple = Query(solo).run().recorder.triple()
            if queries[i].triple() != solo_triple:
                violations.append(
                    f"tenant-{i}: session triple {queries[i].triple()} "
                    f"!= solo triple {solo_triple}"
                )
    count = sum(q.triple()[0] for q in queries)
    io = sum(q.triple()[2] for q in queries)
    clock = max(q.triple()[1] for q in queries)
    return CellOutcome(
        workload=workload,
        operator=operator,
        delivery="session",
        resize=resize,
        count=count,
        clock=clock,
        io=io,
        wall_s=wall,
        violations=violations,
        tenants=tenants,
    )


def run_matrix(
    scale: BenchScale,
    quick: bool = False,
    operators: list[str] | None = None,
    workloads: list[str] | None = None,
    progress=None,
    tenants: int = 1,
    skew_thetas: tuple[float, ...] = (),
    merge_paths: tuple[str, ...] = MERGE_PATH_CHOICES,
    plan_shapes: tuple[str, ...] = (),
) -> list[CellOutcome]:
    """Run the conformance matrix; returns every cell outcome.

    ``quick`` drops the resize axis.  ``operators`` / ``workloads``
    restrict the matrix (names validated).  ``progress`` is an optional
    per-cell callback (the CLI prints from it).  ``tenants > 1``
    switches every cell to the multi-query session variant (see
    :func:`run_cell_tenants`); the delivery axis collapses, since the
    session always interleaves tenants per event.  ``skew_thetas``
    appends one Zipf workload per exponent; skew workloads always run
    the fixed :data:`SKEW_OPERATORS` pair regardless of ``operators``.

    ``merge_paths`` is the merging-phase axis for the sort-merge
    family (:data:`MERGE_PATH_OPERATORS`).  With both paths selected
    (the default), every delivery cell runs on the columnar path and
    one extra cell per (workload, operator, resize) re-runs on the
    scalar oracle path — its ``(count, clock, io)`` triple must equal
    the corresponding columnar cell's exactly, and any divergence is
    reported as a violation on the scalar cell.  A single-element
    tuple pins every cell to that path and skips the cross-check.

    ``plan_shapes`` is the n-way plan axis: each named shape runs one
    :func:`run_plan_cell` per delivery path (in-order oracle,
    release-schedule twin, and watermarked disordered run — see the
    cell runner).  The axis is independent of the ``workloads``
    selection, off by default here, and on (all three shapes) by
    default on the CLI.  Plan cells are skipped in tenant mode (plans
    and the shared session are separate subsystems).
    """
    for name in plan_shapes:
        if name not in PLAN_SHAPES:
            raise ValueError(
                f"unknown plan shape {name!r} (have {', '.join(PLAN_SHAPES)})"
            )
    for name in merge_paths:
        if name not in MERGE_PATH_CHOICES:
            raise ValueError(
                f"unknown merge path {name!r} (have {', '.join(MERGE_PATH_CHOICES)})"
            )
    if not merge_paths:
        raise ValueError("merge_paths must not be empty")
    primary_path = "columnar" if "columnar" in merge_paths else "scalar"
    cross_check = len(set(merge_paths)) == 2
    cases = workload_cases(scale)
    cases.update(skew_workload_cases(scale, tuple(skew_thetas)))
    selected_ops = list(DEFAULT_OPERATORS) if operators is None else operators
    selected_wls = list(cases) if workloads is None else workloads
    for name in selected_ops:
        if name not in OPERATORS:
            raise ValueError(f"unknown operator {name!r} (have {sorted(OPERATORS)})")
    for name in selected_wls:
        if name not in cases:
            raise ValueError(f"unknown workload {name!r} (have {sorted(cases)})")
    outcomes: list[CellOutcome] = []
    for workload in selected_wls:
        case = cases[workload]
        cell_ops = list(SKEW_OPERATORS) if case.get("skew") else selected_ops
        for operator in cell_ops:
            resize_axis = (False,)
            if not quick and operator in RESIZABLE:
                resize_axis = (False, True)
            for resize in resize_axis:
                if tenants > 1:
                    outcome = run_cell_tenants(
                        scale, workload, case, operator, resize, tenants
                    )
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
                    continue
                baseline: CellOutcome | None = None
                for delivery in DELIVERY_PATHS:
                    outcome = run_cell(
                        scale,
                        workload,
                        case,
                        operator,
                        delivery,
                        resize,
                        merge_path=primary_path,
                    )
                    if delivery == "batched":
                        baseline = outcome
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
                if cross_check and operator in MERGE_PATH_OPERATORS:
                    # The merge-path axis: the scalar oracle pass on
                    # the default delivery, pinned triple-identical to
                    # the batched cell above.
                    outcome = run_cell(
                        scale,
                        workload,
                        case,
                        operator,
                        "batched",
                        resize,
                        merge_path="scalar",
                    )
                    assert baseline is not None
                    ours = (outcome.count, outcome.clock, outcome.io)
                    theirs = (baseline.count, baseline.clock, baseline.io)
                    if ours != theirs:
                        outcome.violations.append(
                            f"merge-path divergence: scalar triple {ours} "
                            f"!= columnar triple {theirs}"
                        )
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
    if tenants == 1:
        for shape in plan_shapes:
            for delivery in DELIVERY_PATHS:
                outcome = run_plan_cell(scale, shape, delivery)
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
    return outcomes


def build_report(
    scale: BenchScale,
    quick: bool,
    outcomes: list[CellOutcome],
    tenants: int = 1,
    skew_thetas: tuple[float, ...] = (),
    plan_shapes: tuple[str, ...] = (),
) -> dict:
    """The JSON violation report (schema v1) the CI job uploads."""
    return {
        "schema": 1,
        "kind": "conformance",
        "mode": "quick" if quick else "full",
        "tenants": tenants,
        "skew_thetas": list(skew_thetas),
        "plan_shapes": list(plan_shapes),
        "n_per_source": scale.n_per_source,
        "seed": scale.seed,
        "cells_total": len(outcomes),
        "cells_failed": sum(1 for o in outcomes if not o.ok),
        "violations_total": sum(len(o.violations) for o in outcomes),
        "cells": [asdict(o) for o in outcomes],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.conformance",
        description=(
            "Differential + invariant conformance matrix: every streaming "
            "operator vs the blocking oracle across the six figure "
            "workloads, both delivery paths, with in-engine checks."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the broker resize axis (the reduced CI matrix)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=400,
        metavar="N",
        help="tuples per source (default 400, the pinned-triple scale)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default 7)"
    )
    parser.add_argument(
        "--operators",
        metavar="NAMES",
        help=f"comma-separated subset of {','.join(OPERATORS)}",
    )
    parser.add_argument(
        "--workloads",
        metavar="NAMES",
        help="comma-separated subset of fig09..fig14 (plus skew-t<θ>)",
    )
    parser.add_argument(
        "--skew-theta",
        metavar="THETAS",
        default=None,
        help=(
            "comma-separated Zipf exponents appended as skew workloads, "
            "each run with baseline and skew-adaptive HMJ "
            "(default: 0,1 full / 1 quick; 'none' disables the axis)"
        ),
    )
    parser.add_argument(
        "--merge-path",
        choices=["both", *MERGE_PATH_CHOICES],
        default="both",
        help=(
            "merging-phase axis for the sort-merge family: 'both' (the "
            "default) runs every cell on the columnar path plus one "
            "scalar oracle cell per (workload, operator, resize) with "
            "an exact triple cross-check; 'scalar'/'columnar' pin "
            "every cell to that path"
        ),
    )
    parser.add_argument(
        "--plan-shape",
        metavar="SHAPES",
        default=None,
        help=(
            "comma-separated n-way plan shapes (chain,star,bushy) run "
            "through the plan executor's delivery paths, each with an "
            "in-order oracle run, a bounded-disorder run behind "
            "watermark reorder buffers, and a byte-exact triple "
            "cross-check against the release-schedule twin "
            "(default: all three; 'none' disables the axis)"
        ),
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run every cell as N concurrent queries on one fair-share "
            "session and diff each tenant against its own oracle "
            "(default 1: the classic single-query matrix)"
        ),
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default="conformance_report.json",
        help="where to write the JSON violation report",
    )
    args = parser.parse_args(argv)
    if args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if args.skew_theta is None:
        skew_thetas: tuple[float, ...] = (1.0,) if args.quick else (0.0, 1.0)
    elif args.skew_theta.strip().lower() in ("", "none"):
        skew_thetas = ()
    else:
        try:
            skew_thetas = tuple(
                float(t) for t in args.skew_theta.split(",") if t.strip()
            )
        except ValueError:
            parser.error(
                f"--skew-theta must be comma-separated floats, "
                f"got {args.skew_theta!r}"
            )
    if args.plan_shape is None:
        plan_shapes: tuple[str, ...] = PLAN_SHAPES
    elif args.plan_shape.strip().lower() in ("", "none"):
        plan_shapes = ()
    else:
        plan_shapes = tuple(
            s.strip() for s in args.plan_shape.split(",") if s.strip()
        )
        for name in plan_shapes:
            if name not in PLAN_SHAPES:
                parser.error(
                    f"--plan-shape must name shapes from "
                    f"{','.join(PLAN_SHAPES)}, got {name!r}"
                )
    scale = BenchScale(n_per_source=args.scale, seed=args.seed)

    def progress(outcome: CellOutcome) -> None:
        status = "ok" if outcome.ok else f"FAIL ({len(outcome.violations)})"
        flags = " resize" if outcome.resize else ""
        if outcome.tenants > 1:
            flags += f" x{outcome.tenants}"
        if outcome.merge_path == "scalar":
            flags += " scalar-merge"
        print(
            f"{outcome.workload} {outcome.operator:>6} "
            f"{outcome.delivery:>9}{flags}: {status:<9} "
            f"count={outcome.count} clock={outcome.clock:.4f} "
            f"io={outcome.io} [{outcome.wall_s:.2f}s]"
        )

    merge_paths = (
        MERGE_PATH_CHOICES if args.merge_path == "both" else (args.merge_path,)
    )
    outcomes = run_matrix(
        scale,
        quick=args.quick,
        operators=args.operators.split(",") if args.operators else None,
        workloads=args.workloads.split(",") if args.workloads else None,
        progress=progress,
        tenants=args.tenants,
        skew_thetas=skew_thetas,
        merge_paths=merge_paths,
        plan_shapes=plan_shapes,
    )
    report = build_report(
        scale,
        args.quick,
        outcomes,
        tenants=args.tenants,
        skew_thetas=skew_thetas,
        plan_shapes=plan_shapes,
    )
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
    failed = [o for o in outcomes if not o.ok]
    print(
        f"\n{report['cells_total']} cells, {len(failed)} failed, "
        f"{report['violations_total']} violations -> {args.report}"
    )
    for outcome in failed:
        header = (
            f"{outcome.workload}/{outcome.operator}/{outcome.delivery}"
            f"{'/resize' if outcome.resize else ''}"
        )
        for violation in outcome.violations:
            print(f"  {header}: {violation}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
