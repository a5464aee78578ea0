"""A binary join is the one-join plan.

``run_join(a, b, op)`` and ``run_plan(join(leaf(a), leaf(b), factory))``
run on the same driver, so they must agree exactly: the same
``(count, clock, io)`` triple and the same result identities, over
every operator family, both delivery paths, early stops, bounded
disorder and a mid-run memory broker.  A one-join plan over two bare
leaves also takes the columnar run delivery the binary engine always
had; deeper plans keep the kernel's per-arrival replay.
"""

from __future__ import annotations

import pytest

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import BoundedDisorder, PoissonArrival
from repro.net.source import DisorderedSource, NetworkSource
from repro.pipeline import chain_plan, join, leaf, run_plan
from repro.sim.broker import ResourceBroker
from repro.sim.engine import run_join
from repro.workloads.generator import WorkloadSpec, make_relation_pair

SPEC = WorkloadSpec(n_a=300, n_b=300, key_range=400, seed=21)
MEMORY = 120

OPERATORS = {
    "hmj": lambda: HashMergeJoin(HMJConfig(memory_capacity=MEMORY, n_buckets=16)),
    "xjoin": lambda: XJoin(memory_capacity=MEMORY),
    "pmj": lambda: ProgressiveMergeJoin(memory_capacity=MEMORY),
}


def _sources(disordered: bool):
    rel_a, rel_b = make_relation_pair(SPEC)
    if disordered:
        return (
            DisorderedSource(rel_a, PoissonArrival(600.0), BoundedDisorder(0.01, seed=1), seed=11),
            DisorderedSource(rel_b, PoissonArrival(500.0), BoundedDisorder(0.01, seed=2), seed=22),
        )
    return (
        NetworkSource(rel_a, PoissonArrival(600.0), seed=11),
        NetworkSource(rel_b, PoissonArrival(500.0), seed=22),
    )


def _signature(result):
    return (
        result.recorder.triple(),
        result.completed,
        sorted(r.identity() for r in result.recorder.results),
    )


@pytest.mark.parametrize("broker", [False, True], ids=["static", "broker"])
@pytest.mark.parametrize("disordered", [False, True], ids=["in-order", "disordered"])
@pytest.mark.parametrize("stop_after", [None, 40], ids=["full", "first-k"])
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-event"])
@pytest.mark.parametrize("algorithm", sorted(OPERATORS))
def test_run_join_equals_one_join_plan(algorithm, batched, stop_after, disordered, broker):
    def kwargs():
        grants = ResourceBroker([(0.1, 40), (0.3, 200)]) if broker else None
        return dict(
            stop_after=stop_after, batch_delivery=batched, broker=grants,
            blocking_threshold=0.02,
        )

    make = OPERATORS[algorithm]
    binary = run_join(*_sources(disordered), make(), **kwargs())
    src_a, src_b = _sources(disordered)
    plan = run_plan(join(leaf(src_a), leaf(src_b), make), **kwargs())
    assert _signature(plan) == _signature(binary)
    assert binary.recorder.count > 0


class _CountingHMJ(HashMergeJoin):
    """Counts the rows it receives as columns."""

    def __init__(self) -> None:
        super().__init__(HMJConfig(memory_capacity=MEMORY, n_buckets=16))
        self.column_rows = 0

    def on_column_batch(self, batch) -> None:
        self.column_rows += len(batch)
        super().on_column_batch(batch)


def test_one_join_plan_receives_columns():
    operators: list[_CountingHMJ] = []

    def factory():
        operators.append(_CountingHMJ())
        return operators[-1]

    src_a, src_b = _sources(False)
    run_plan(join(leaf(src_a), leaf(src_b), factory))
    assert [op.column_rows for op in operators] == [SPEC.n_a + SPEC.n_b]


def test_chain_plan_operators_receive_no_columns():
    operators: list[_CountingHMJ] = []

    def factory():
        operators.append(_CountingHMJ())
        return operators[-1]

    src_a, src_b = _sources(False)
    rel_c, _ = make_relation_pair(WorkloadSpec(n_a=300, n_b=1, key_range=400, seed=5))
    result = run_plan(
        chain_plan([src_a, src_b, NetworkSource(rel_c, PoissonArrival(550.0), seed=33)], factory)
    )
    assert result.count > 0
    assert [op.column_rows for op in operators] == [0, 0]


def test_same_labelled_leaves_take_their_positions_side():
    """A self-join over two cursors of one source: the columnar path
    sides rows by leaf position, exactly as per-tuple relabelling does."""
    signatures = []
    for batched in (True, False):
        src_a, _ = _sources(False)
        plan = join(
            leaf(src_a.cursor(label="left")),
            leaf(src_a.cursor(label="right")),
            OPERATORS["hmj"],
        )
        signatures.append(_signature(run_plan(plan, batch_delivery=batched)))
    assert signatures[0] == signatures[1]
    assert signatures[0][0][0] >= SPEC.n_a
