"""Delivery-path equivalence: per-tuple vs batched.

Run-batch delivery (the kernel's ``deliver_run`` callback) is an
amortisation, never a simulation change.  HMJ receives each run as
:class:`~repro.core.columnar.ColumnBatch` arrays (vectorized run
extraction included); every other operator, and HMJ subclasses that
override ``on_tuple``, replay the boxed run through ``on_tuple``.
For any workload both kernel paths must produce the identical
``(count, final clock, io)`` triple *and* the identical result-event
sequence.  This suite pins that equivalence six ways:

* every cell of the six pinned figure benchmarks (the exact scenarios
  ``test_determinism.py`` captures) through both paths, plus the rest
  of the symmetric-hash family: DPHJ, the static-memory XJoin variant
  and SHJ (boxed replay, like XJoin);
* a randomized property test over arrival models (constant / Poisson /
  Pareto), tiny memory budgets that force flushing mid-run (segmented
  columnar batches with mid-batch flush points), and early stops that
  land mid-batch;
* long segments: an all-memory constant-rate run (one segment, A
  and B rows at one instant) and bursty tight-memory runs (segments
  of about a thousand rows after each flush) cross the length switch
  into the busy-period clock walk and the radix-ordered sorts;
* an explicit ``stop_after`` granularity check: the batched path must
  halt after the same number of delivered tuples as the per-tuple path,
  not at the end of the batch the stop fired in;
* side labelling: a row plays the side of its relation's label on
  both paths, whichever engine slot its source occupies;
* and the replay guard: a subclass that overrides ``on_tuple`` sees
  every arrival through its override on the batched path too, and so
  does an ``on_tuple`` patched onto an XJoin or DPHJ instance.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.figures import BLOCKING_T, _bursty
from repro.bench.runner import execute
from repro.bench.scale import BenchScale
from repro.core import columnar
from repro.core.config import HMJConfig
from repro.core.flushing import FlushSmallestPolicy
from repro.core.hmj import HashMergeJoin
from repro.joins.dphj import DoublePipelinedHashJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.joins.xjoin import XJoin, XJoinStaticMemory
from repro.net.arrival import BurstyArrival, ConstantRate, ParetoArrival, PoissonArrival
from repro.errors import ConfigurationError
from repro.net.source import NetworkSource
from repro.sim.engine import run_join
from repro.storage.tuples import SOURCE_A, SOURCE_B, Relation
from repro.workloads.generator import WorkloadSpec, make_relation_pair

SCALE = BenchScale(n_per_source=400, seed=7)

#: The delivery axis: label -> engine path switch.
PATHS = {
    "per_tuple": {"batch_delivery": False},
    "batched": {"batch_delivery": True},
}


def _signature(result):
    """Everything observable about a run: the triple plus every event."""
    return (
        result.recorder.count,
        result.clock.now,
        result.disk.io_count,
        list(result.recorder.iter_events()),
    )


def _all_paths(make_operator, make_arrival_a, make_arrival_b, **kwargs):
    signatures = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(SCALE.spec)
        result = execute(
            rel_a,
            rel_b,
            make_operator(),
            make_arrival_a(),
            make_arrival_b(),
            **path,
            **kwargs,
        )
        signatures[label] = _signature(result)
    return signatures


def _hmj(**kwargs):
    memory = kwargs.pop("memory", SCALE.spec.memory_capacity())
    return HashMergeJoin(HMJConfig(memory_capacity=memory, **kwargs))


def _fast():
    return ConstantRate(SCALE.fast_rate)


def _slow():
    return ConstantRate(SCALE.fast_rate / 5.0)


def _burst():
    return _bursty(SCALE)


def _figure_cells():
    memory = SCALE.spec.memory_capacity()
    tight = SCALE.spec.memory_capacity(0.10)
    first_k = SCALE.first_k(1000)
    return {
        "fig09-hmj-p05": (
            lambda: _hmj(flush_fraction=0.05, fan_in=16), _fast, _fast, {},
        ),
        "fig10-hmj-adaptive": (_hmj, _fast, _fast, {}),
        "fig10-hmj-smallest": (
            lambda: _hmj(policy=FlushSmallestPolicy()), _fast, _fast, {},
        ),
        "fig11-hmj": (_hmj, _fast, _fast, {}),
        "fig11-xjoin": (lambda: XJoin(memory_capacity=memory), _fast, _fast, {}),
        "fig11-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _fast, _fast, {},
        ),
        "fig12-hmj": (_hmj, _fast, _slow, {}),
        "fig12-xjoin": (lambda: XJoin(memory_capacity=memory), _fast, _slow, {}),
        "fig12-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _fast, _slow, {},
        ),
        "fig13-hmj-stop": (
            lambda: _hmj(memory=tight), _fast, _fast, {"stop_after": first_k},
        ),
        "fig13-pmj-stop": (
            lambda: ProgressiveMergeJoin(memory_capacity=tight),
            _fast, _fast, {"stop_after": first_k},
        ),
        "fig14-hmj": (_hmj, _burst, _burst, {"blocking_threshold": BLOCKING_T}),
        "fig14-xjoin": (
            lambda: XJoin(memory_capacity=memory), _burst, _burst,
            {"blocking_threshold": BLOCKING_T},
        ),
        "fig14-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _burst, _burst,
            {"blocking_threshold": BLOCKING_T},
        ),
        # The rest of the symmetric-hash family.  Like XJoin, their
        # batches go through the base to_tuples -> on_tuple_batch
        # replay of the shared per-tuple step.
        "fig11-shj": (lambda: SymmetricHashJoin(), _fast, _fast, {}),
        "fig11-xjoin-static": (
            lambda: XJoinStaticMemory(memory_capacity=memory), _fast, _fast, {},
        ),
        "fig11-dphj": (
            lambda: DoublePipelinedHashJoin(memory_capacity=memory),
            _fast, _fast, {},
        ),
        "fig14-xjoin-static": (
            lambda: XJoinStaticMemory(memory_capacity=memory), _burst, _burst,
            {"blocking_threshold": BLOCKING_T},
        ),
        "fig14-dphj": (
            lambda: DoublePipelinedHashJoin(memory_capacity=memory),
            _burst, _burst, {"blocking_threshold": BLOCKING_T},
        ),
    }


@pytest.mark.parametrize("cell", sorted(_figure_cells()))
def test_figure_cells_identical_through_all_paths(cell):
    make_operator, arr_a, arr_b, kwargs = _figure_cells()[cell]
    signatures = _all_paths(make_operator, arr_a, arr_b, **kwargs)
    assert signatures["batched"] == signatures["per_tuple"]


# -- randomized equivalence --------------------------------------------------

_ARRIVALS = {
    "constant": lambda: ConstantRate(800.0),
    "poisson": lambda: PoissonArrival(800.0),
    "pareto": lambda: ParetoArrival(800.0, shape=1.5),
}

#: The symmetric-hash family, each built for a drawn memory budget
#: (SHJ runs unbounded: it has no flushing).
_RANDOM_OPERATORS = {
    "hmj": lambda memory: HashMergeJoin(HMJConfig(memory_capacity=memory)),
    "xjoin": lambda memory: XJoin(memory_capacity=memory),
    "dphj": lambda memory: DoublePipelinedHashJoin(memory_capacity=memory),
    "xjoin-static": lambda memory: XJoinStaticMemory(memory_capacity=memory),
    "shj": lambda memory: SymmetricHashJoin(),
}


@given(
    n=st.integers(min_value=20, max_value=120),
    key_range=st.integers(min_value=4, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
    kind_a=st.sampled_from(sorted(_ARRIVALS)),
    kind_b=st.sampled_from(sorted(_ARRIVALS)),
    memory=st.integers(min_value=4, max_value=16),
    stop_after=st.none() | st.integers(min_value=1, max_value=40),
    op_kind=st.sampled_from(sorted(_RANDOM_OPERATORS)),
)
def test_batched_paths_equivalent_on_random_workloads(
    n, key_range, seed, kind_a, kind_b, memory, stop_after, op_kind
):
    spec = WorkloadSpec(n_a=n, n_b=n, key_range=key_range, seed=seed)
    signatures = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        result = execute(
            rel_a,
            rel_b,
            _RANDOM_OPERATORS[op_kind](memory),
            _ARRIVALS[kind_a](),
            _ARRIVALS[kind_b](),
            blocking_threshold=0.01,
            stop_after=stop_after,
            **path,
        )
        signatures[label] = _signature(result)
    assert signatures["batched"] == signatures["per_tuple"]


# -- long segments: the busy-period clock walk and radix sorts ---------------


@pytest.fixture
def busy_walks(monkeypatch):
    """``(rows, settled)`` of every busy-period walk a run takes."""
    calls = []
    walk = columnar._busy_period_walk

    def spy(now, ats, *args):
        block, end, settled = walk(now, ats, *args)
        calls.append((len(ats), settled))
        return block, end, settled

    monkeypatch.setattr(columnar, "_busy_period_walk", spy)
    return calls


def _hmj_signatures(spec, memory, make_arrival, **config):
    signatures = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        result = execute(
            rel_a,
            rel_b,
            HashMergeJoin(HMJConfig(memory_capacity=memory, **config)),
            make_arrival(),
            make_arrival(),
            blocking_threshold=0.05,
            **path,
        )
        signatures[label] = _signature(result)
    return signatures


@pytest.mark.parametrize("key_range", [3000, 2**17 + 3], ids=["dense", "wide-keys"])
def test_all_memory_constant_rate_run_is_one_long_segment(key_range, busy_walks):
    """Equal constant rates put each A row and B row at one instant,
    and memory for the whole input makes the run one 3000-row segment:
    the busy-period walk settles its 1500 two-row busy periods, and
    the segment sorts take one 16-bit digit pass (dense keys) or two
    (wide keys)."""
    spec = WorkloadSpec(n_a=1500, n_b=1500, key_range=key_range, seed=7)
    signatures = _hmj_signatures(spec, 3000, lambda: ConstantRate(2000.0))
    assert signatures["batched"] == signatures["per_tuple"]
    assert busy_walks == [(3000, 3000)]


@pytest.mark.parametrize(
    "intra_gap, settles",
    [(1e-6, False), (8e-6, False), (2e-5, True)],
    ids=["cpu-bound-bursts", "growing-backlog", "idle-gaps"],
)
def test_bursty_tight_memory_long_segments(intra_gap, settles, busy_walks):
    """Bursts of 600 rows into memory for 2000, half of it flushed at
    a time, give segments of about a thousand rows.  Bursts faster than
    a row's charges make busy periods longer than the round limit, so
    the walk hands the rest of the segment to the scalar loop; slower
    bursts settle whole.  Flushes that end after the next rows arrived
    open segments on a backlog, which take the scalar loop outright."""
    spec = WorkloadSpec(n_a=4000, n_b=4000, key_range=1000, seed=7)
    signatures = _hmj_signatures(
        spec, 2000, lambda: BurstyArrival(300, intra_gap, 0.5), flush_fraction=0.5
    )
    assert signatures["batched"] == signatures["per_tuple"]
    assert busy_walks
    assert all(settled == rows for rows, settled in busy_walks) == settles


# -- early-stop granularity --------------------------------------------------


def test_stop_after_halts_with_single_result_granularity():
    """An early stop lands mid-run, not at the end of a delivery batch.

    At constant equal rates every batch spans many arrivals, so a
    batch-granular stop would overshoot the per-tuple path on both the
    result count and the number of source tuples consumed.  The batched
    path must check the stop predicate between consecutive arrivals.
    """
    spec = SCALE.spec
    stop_after = 25
    outcomes = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        src_a = NetworkSource(rel_a, ConstantRate(SCALE.fast_rate), seed=11)
        src_b = NetworkSource(rel_b, ConstantRate(SCALE.fast_rate), seed=22)
        operator = HashMergeJoin(
            HMJConfig(memory_capacity=spec.memory_capacity(0.10))
        )
        result = run_join(
            src_a,
            src_b,
            operator,
            keep_results=False,
            stop_after=stop_after,
            **path,
        )
        outcomes[label] = (
            _signature(result),
            src_a.delivered,
            src_b.delivered,
        )
    assert outcomes["batched"] == outcomes["per_tuple"]
    signature, delivered_a, delivered_b = outcomes["batched"]
    assert signature[0] >= stop_after
    # The stop fired strictly inside the input, not at stream end.
    assert delivered_a + delivered_b < 2 * SCALE.n_per_source


# -- retained-result identity ------------------------------------------------


@pytest.mark.parametrize("op_kind", ["hmj", "xjoin"])
def test_retained_results_identical_across_paths(op_kind):
    """Boxed result sequences agree, not just the counts.

    The columnar path materialises ``JoinResult`` objects lazily from
    :class:`~repro.core.columnar.ResultColumns` segments; the exact
    emission order and A/B orientation must survive that round-trip.
    """
    spec = SCALE.spec
    sequences = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        src_a = NetworkSource(rel_a, PoissonArrival(SCALE.fast_rate), seed=11)
        src_b = NetworkSource(rel_b, PoissonArrival(SCALE.fast_rate), seed=22)
        if op_kind == "hmj":
            operator = HashMergeJoin(
                HMJConfig(memory_capacity=spec.memory_capacity(0.10))
            )
        else:
            operator = XJoin(memory_capacity=spec.memory_capacity(0.10))
        result = run_join(src_a, src_b, operator, keep_results=True, **path)
        sequences[label] = [
            (r.left.identity(), r.right.identity()) for r in result.results
        ]
    assert sequences["batched"] == sequences["per_tuple"]


# -- the replay guard ---------------------------------------------------------


class _CountingHMJ(HashMergeJoin):
    def __init__(self, config):
        super().__init__(config)
        self.calls = 0

    def on_tuple(self, t):
        self.calls += 1
        super().on_tuple(t)


class _CountingXJoin(XJoin):
    def __init__(self, memory_capacity):
        super().__init__(memory_capacity)
        self.calls = 0

    def on_tuple(self, t):
        self.calls += 1
        super().on_tuple(t)


_COUNTING = {
    "hmj": (
        lambda: _CountingHMJ(HMJConfig(memory_capacity=40)),
        lambda: HashMergeJoin(HMJConfig(memory_capacity=40)),
    ),
    "xjoin": (
        lambda: _CountingXJoin(memory_capacity=40),
        lambda: XJoin(memory_capacity=40),
    ),
}


@pytest.mark.parametrize("op_kind", sorted(_COUNTING))
def test_overridden_on_tuple_sees_every_batched_arrival(op_kind):
    """A subclass overriding ``on_tuple`` is replayed, never bypassed.

    The columnar driver reproduces only the shared hashing step, so a
    batched run of a customising subclass goes through its override
    once per arrival, and still gives the per-event signature.
    """
    make_counting, make_plain = _COUNTING[op_kind]
    spec = WorkloadSpec(n_a=300, n_b=300, key_range=60, seed=5)
    signatures = {}
    for label, make, path in (
        ("override-batched", make_counting, PATHS["batched"]),
        ("plain-per-tuple", make_plain, PATHS["per_tuple"]),
    ):
        rel_a, rel_b = make_relation_pair(spec)
        operator = make()
        result = execute(
            rel_a, rel_b, operator, ConstantRate(800.0), PoissonArrival(800.0), **path
        )
        signatures[label] = _signature(result)
        if label == "override-batched":
            assert operator.calls == 600
    assert signatures["override-batched"] == signatures["plain-per-tuple"]


@pytest.mark.parametrize("make", [XJoin, DoublePipelinedHashJoin], ids=["xjoin", "dphj"])
def test_xjoin_family_batches_replay_instance_on_tuple(make):
    """XJoin and DPHJ batches go through ``on_tuple``, even an instance's.

    Patching the step on the instance (not the class) shows that no
    array-native stage 1 bypasses it: a batched run calls it once per
    arrival and still gives the per-event signature.
    """
    spec = WorkloadSpec(n_a=300, n_b=300, key_range=60, seed=5)
    signatures = {}
    calls = []
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        operator = make(memory_capacity=40)
        if label == "batched":
            step = operator.on_tuple

            def counting(t, step=step):
                calls.append(t)
                step(t)

            operator.on_tuple = counting
        result = execute(
            rel_a, rel_b, operator, ConstantRate(800.0), PoissonArrival(800.0), **path
        )
        signatures[label] = _signature(result)
    assert len(calls) == 600
    assert signatures["batched"] == signatures["per_tuple"]


# -- source sides -------------------------------------------------------------


def _keyed(source, n=50):
    return Relation.from_keys([i % 5 for i in range(n)], source=source)


_SIDED_OPERATORS = {
    "hmj": lambda: HashMergeJoin(HMJConfig(memory_capacity=20)),
    "xjoin": lambda: XJoin(memory_capacity=20),
    "pmj": lambda: ProgressiveMergeJoin(memory_capacity=20),
}


@pytest.mark.parametrize("op_kind", sorted(_SIDED_OPERATORS))
def test_swapped_sources_keep_their_relation_sides(op_kind):
    """B's relation in the engine's first slot still plays side B.

    Per-event delivery sides each tuple by its ``source`` label; the
    batched path must side each row the same way, not by the slot its
    stream was registered in.
    """
    results = {}
    for label, path in PATHS.items():
        # B is the shorter relation, so its tids (0..29) tell the
        # sides apart in every result.
        src_b = NetworkSource(_keyed(SOURCE_B, 30), ConstantRate(1000.0), seed=1)
        src_a = NetworkSource(_keyed(SOURCE_A), ConstantRate(1000.0), seed=2)
        result = run_join(src_b, src_a, _SIDED_OPERATORS[op_kind](), **path)
        results[label] = sorted(r.identity() for r in result.results)
    assert results["batched"] == results["per_tuple"]
    assert len(results["batched"]) == 300
    assert {right[1] for _, right in results["batched"]} == set(range(30))


def test_same_labelled_sources_are_rejected():
    src_1 = NetworkSource(_keyed(SOURCE_A), ConstantRate(1000.0), seed=1)
    src_2 = NetworkSource(_keyed(SOURCE_A), ConstantRate(1000.0), seed=2)
    with pytest.raises(ConfigurationError, match="same relation label"):
        run_join(src_1, src_2, HashMergeJoin(HMJConfig(memory_capacity=20)))
