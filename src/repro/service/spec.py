"""The query-spec vocabulary: JSON in, a runnable :class:`Query` out.

One :class:`QuerySpec` describes everything a two-source streaming
join needs — workload shape, arrival model, operator and its knobs,
stop condition, arbitration weight — in plain scalars, so it
round-trips through JSON for the socket server.  The CLI's
``run``/``compare`` subcommands build a spec from their flags and run
:meth:`QuerySpec.build`, and the bench grid builds its operators with
:func:`make_operator`, so every entry point shares one run builder.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from repro.core.config import HMJConfig
from repro.core.flushing import (
    AdaptiveFlushingPolicy,
    FlushAllPolicy,
    FlushLargestPolicy,
    FlushSmallestPolicy,
)
from repro.core.hmj import HashMergeJoin
from repro.errors import ConfigurationError
from repro.joins.base import StreamingJoinOperator
from repro.joins.dphj import DoublePipelinedHashJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import (
    ArrivalProcess,
    BoundedDisorder,
    BurstyArrival,
    ConstantRate,
    ParetoArrival,
    PoissonArrival,
)
from repro.net.source import DisorderedSource, NetworkSource
from repro.sim.engine import JoinSimulation
from repro.sim.query import Query
from repro.workloads.generator import WorkloadSpec, make_relation_pair

#: Supported join operators, by spec name.
ALGORITHMS = ("hmj", "xjoin", "pmj", "dphj", "shj")
#: Supported arrival models, by spec name.
ARRIVALS = ("constant", "poisson", "pareto", "bursty")
#: Supported plan shapes: "join" is the classic two-source engine;
#: the rest are n-way plan trees (see repro.pipeline.shapes).
SHAPES = ("join", "chain", "star", "bushy")
#: HMJ flushing policies, by spec name.
POLICIES = {
    "adaptive": AdaptiveFlushingPolicy,
    "all": FlushAllPolicy,
    "smallest": FlushSmallestPolicy,
    "largest": FlushLargestPolicy,
}


def make_arrival(
    kind: str, rate: float, n: int, burst_silence: float = 0.5
) -> ArrivalProcess:
    """Build one source's arrival process from its spec name."""
    if kind == "constant":
        return ConstantRate(rate)
    if kind == "poisson":
        return PoissonArrival(rate)
    if kind == "pareto":
        return ParetoArrival(rate, shape=1.3)
    if kind == "bursty":
        return BurstyArrival(
            burst_size=max(1, n // 20),
            intra_gap=1.0 / rate,
            mean_silence=burst_silence,
        )
    raise ConfigurationError(
        f"unknown arrival model {kind!r}; choose from {ARRIVALS}"
    )


def make_operator(
    name: str,
    memory: int,
    n_buckets: int | None = None,
    flush_fraction: float = 0.05,
    fan_in: int = 8,
    policy: str = "adaptive",
) -> StreamingJoinOperator:
    """Build an unbound join operator from its spec name."""
    if name == "hmj":
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown flushing policy {policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )
        return HashMergeJoin(
            HMJConfig(
                memory_capacity=memory,
                n_buckets=n_buckets,
                flush_fraction=flush_fraction,
                fan_in=fan_in,
                policy=POLICIES[policy](),
            )
        )
    if name == "xjoin":
        return XJoin(memory_capacity=memory)
    if name == "pmj":
        return ProgressiveMergeJoin(memory_capacity=memory, fan_in=fan_in)
    if name == "dphj":
        return DoublePipelinedHashJoin(memory_capacity=memory)
    if name == "shj":
        return SymmetricHashJoin()
    raise ConfigurationError(
        f"unknown algorithm {name!r}; choose from {ALGORITHMS}"
    )


@dataclass(slots=True)
class QuerySpec:
    """A complete two-source join query, in JSON-safe scalars.

    Defaults mirror the CLI's ``run`` subcommand; ``n`` is service-
    sized (hundreds of tenants on one machine) rather than the
    figure-suite's 10k.

    Attributes:
        query_id: Stable identifier ("" lets the session assign one).
        algorithm: One of :data:`ALGORITHMS`.
        n: Tuples per source.
        key_range: Join-key domain (default ``2 * n``, paper density).
        distribution / zipf_theta / seed: Workload shape.
        arrival / rate / rate_skew: Network model; ``rate`` defaults to
            ``n / 2`` tuples per virtual second, A arrives
            ``rate_skew`` times faster than B.
        source_seed_a / source_seed_b: Arrival-jitter seeds.
        blocking_threshold: Section 6.3's ``T``.
        memory: Explicit memory budget in tuples; when ``None``,
            ``memory_fraction`` of the total input (paper: 10%).
        stop_after: Stop once this many results exist (first-k runs).
        weight: Arbitration weight under weighted broker policies.
        deadline: Virtual-time deadline for deadline-aware policies.
        keep_results: Retain result tuples (oracle checks need them;
            the server defaults to metrics only).
        journal: Record the query's structural-event timeline.
        plan_shape: One of :data:`SHAPES` — ``"join"`` runs the
            two-source engine; ``"chain"``, ``"star"``, ``"bushy"``
            run an ``n_way``-relation plan of that shape (a star
            shares its hub source through per-consumer cursors).
        n_way: Relations in a plan-shaped query (ignored for "join").
        disorder_slack: When set, arrivals are jittered out of order
            by up to this many seconds (seeded by ``disorder_seed``)
            and re-ordered behind watermark reorder buffers with bound
            ``disorder_bound`` (defaults to the slack).  Observable
            numbers match the in-order run over the release schedule
            byte-for-byte.
    """

    query_id: str = ""
    algorithm: str = "hmj"
    n: int = 400
    key_range: int | None = None
    distribution: str = "uniform"
    zipf_theta: float = 1.1
    seed: int = 7
    arrival: str = "constant"
    rate: float | None = None
    rate_skew: float = 1.0
    source_seed_a: int = 11
    source_seed_b: int = 22
    blocking_threshold: float = 1.0
    memory: int | None = None
    memory_fraction: float = 0.10
    n_buckets: int | None = None
    flush_fraction: float = 0.05
    fan_in: int = 8
    policy: str = "adaptive"
    stop_after: int | None = None
    weight: float = 1.0
    deadline: float | None = None
    keep_results: bool = False
    journal: bool = False
    plan_shape: str = "join"
    n_way: int = 3
    disorder_slack: float | None = None
    disorder_bound: float | None = None
    disorder_seed: int = 99

    def workload(self) -> WorkloadSpec:
        """The workload half of the spec."""
        key_range = self.key_range if self.key_range is not None else 2 * self.n
        return WorkloadSpec(
            n_a=self.n,
            n_b=self.n,
            key_range=key_range,
            distribution=self.distribution,
            zipf_theta=self.zipf_theta,
            seed=self.seed,
        )

    def memory_budget(self) -> int:
        """The operator memory grant this query asks for, in tuples."""
        if self.memory is not None:
            if not isinstance(self.memory, (int, float)) or not 0 < self.memory < math.inf:
                raise ConfigurationError(
                    f"memory must be a positive, finite tuple count, got {self.memory!r}"
                )
            return int(self.memory)
        return self.workload().memory_capacity(self.memory_fraction)

    def disorder(self) -> BoundedDisorder | None:
        """The spec's bounded-disorder model, or ``None`` when in order."""
        if self.disorder_slack is None:
            return None
        return BoundedDisorder(
            self.disorder_slack,
            seed=self.disorder_seed,
            bound=self.disorder_bound,
        )

    def build(self, checks=None) -> Query:
        """Materialise the spec into a runnable :class:`Query`."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS}"
            )
        if self.plan_shape not in SHAPES:
            raise ConfigurationError(
                f"unknown plan shape {self.plan_shape!r}; choose from {SHAPES}"
            )
        if self.plan_shape != "join":
            return self._build_plan_query(checks)
        spec = self.workload()
        rel_a, rel_b = make_relation_pair(spec)
        rate = self.rate if self.rate is not None else self.n / 2.0
        arrival_a = make_arrival(self.arrival, rate * self.rate_skew, self.n)
        arrival_b = make_arrival(self.arrival, rate, self.n)
        disorder = self.disorder()
        if disorder is None:
            src_a: NetworkSource | DisorderedSource = NetworkSource(
                rel_a, arrival_a, seed=self.source_seed_a
            )
            src_b: NetworkSource | DisorderedSource = NetworkSource(
                rel_b, arrival_b, seed=self.source_seed_b
            )
        else:
            dis_a = BoundedDisorder(
                disorder.slack, seed=disorder.seed, bound=disorder.bound
            )
            dis_b = BoundedDisorder(
                disorder.slack, seed=disorder.seed + 1, bound=disorder.bound
            )
            src_a = DisorderedSource(
                rel_a, arrival_a, dis_a, seed=self.source_seed_a
            )
            src_b = DisorderedSource(
                rel_b, arrival_b, dis_b, seed=self.source_seed_b
            )
        operator = make_operator(
            self.algorithm,
            self.memory_budget(),
            n_buckets=self.n_buckets,
            flush_fraction=self.flush_fraction,
            fan_in=self.fan_in,
            policy=self.policy,
        )
        sim = JoinSimulation(
            src_a,
            src_b,
            operator,
            blocking_threshold=self.blocking_threshold,
            keep_results=self.keep_results,
            stop_after=self.stop_after,
            journal=self.journal,
            checks=checks,
        )
        return Query(
            sim,
            query_id=self.query_id or "q0",
            weight=self.weight,
            deadline=self.deadline,
        )

    def _build_plan_query(self, checks=None) -> Query:
        """Materialise an n-way plan-shaped spec into a :class:`Query`."""
        from repro.pipeline.executor import PlanExecutor
        from repro.pipeline.shapes import (
            build_plan,
            build_sources,
            make_plan_relations,
        )

        if self.n_way < 2 or (self.plan_shape == "star" and self.n_way < 3):
            raise ConfigurationError(
                f"plan shape {self.plan_shape!r} needs more relations "
                f"than n_way={self.n_way}"
            )
        key_range = self.key_range if self.key_range is not None else 2 * self.n
        relations = make_plan_relations(
            self.n_way, self.n, key_range, seed=self.seed
        )
        rate = self.rate if self.rate is not None else self.n / 2.0
        arrival = make_arrival(self.arrival, rate, self.n)
        sources = build_sources(
            relations,
            arrival,
            seed=self.source_seed_a,
            disorder=self.disorder(),
            shape=self.plan_shape,
        )
        memory = self.memory_budget()

        def factory() -> StreamingJoinOperator:
            return make_operator(
                self.algorithm,
                memory,
                n_buckets=self.n_buckets,
                flush_fraction=self.flush_fraction,
                fan_in=self.fan_in,
                policy=self.policy,
            )

        executor = PlanExecutor(
            build_plan(self.plan_shape, sources, factory),
            blocking_threshold=self.blocking_threshold,
            keep_results=self.keep_results,
            stop_after=self.stop_after,
            journal=self.journal,
            checks=checks,
        )
        return Query(
            executor,
            query_id=self.query_id or "q0",
            weight=self.weight,
            deadline=self.deadline,
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form (the wire format of ``repro serve``)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "QuerySpec":
        """Parse a JSON object, rejecting unknown keys loudly."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"query spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown query spec fields {unknown}; known: {sorted(known)}"
            )
        return cls(**data)
