"""The in-engine invariant checkers.

Two halves: checkers must stay silent (and observably free) on
conformant runs, and each invariant must actually fire when a broken
operator violates it.  Broken operators are built by subclassing the
real ones and sabotaging exactly one behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.errors import ConfigurationError, ConformanceViolationError
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.pipeline.executor import run_plan
from repro.pipeline.plan import join, leaf
from repro.sim.engine import run_join, stream_join
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.testing import InvariantChecks
from repro.workloads.generator import WorkloadSpec, make_relation_pair

SPEC = WorkloadSpec(n_a=150, n_b=150, key_range=80, seed=13)


def _sources(spec=SPEC, rate=2000.0):
    rel_a, rel_b = make_relation_pair(spec)
    return (
        NetworkSource(rel_a, ConstantRate(rate), seed=11),
        NetworkSource(rel_b, ConstantRate(rate), seed=22),
    )


def _hmj():
    return HashMergeJoin(HMJConfig(memory_capacity=SPEC.memory_capacity()))


# -- silent on conformant runs ----------------------------------------------


@pytest.mark.parametrize("batched", [True, False])
def test_checked_run_is_clean_and_triple_identical(batched):
    """Checkers observe without perturbing: same triple, no violations."""
    src_a, src_b = _sources()
    unchecked = run_join(src_a, src_b, _hmj(), batch_delivery=batched)

    checks = InvariantChecks(mode="collect")
    src_a, src_b = _sources()
    checked = run_join(
        src_a, src_b, _hmj(), batch_delivery=batched, checks=checks
    )
    assert checks.ok, checks.report()
    assert checked.recorder.triple() == unchecked.recorder.triple()
    assert list(checked.recorder.iter_events()) == list(
        unchecked.recorder.iter_events()
    )


def test_checks_true_means_raise_mode():
    src_a, src_b = _sources()
    result = run_join(src_a, src_b, _hmj(), checks=True)
    assert result.completed


def test_checked_stream_run_is_clean():
    checks = InvariantChecks(mode="collect")
    src_a, src_b = _sources()
    stream = stream_join(src_a, src_b, _hmj(), checks=checks)
    results = list(stream)
    assert checks.ok, checks.report()
    assert len(results) == stream.recorder.count


def test_checked_plan_run_is_clean():
    rel_a, rel_b = make_relation_pair(WorkloadSpec(n_a=80, n_b=80, key_range=40, seed=5))
    plan = join(
        leaf(NetworkSource(rel_a, ConstantRate(2000.0), seed=11)),
        leaf(NetworkSource(rel_b, ConstantRate(2000.0), seed=22)),
        operator_factory=_hmj,
    )
    checks = InvariantChecks(mode="collect")
    result = run_plan(plan, checks=checks)
    assert result.completed
    assert checks.ok, checks.report()


def test_checked_early_stop_skips_final_state_checks():
    """An early-stopped run may leave work behind; only live checks run."""
    checks = InvariantChecks(mode="collect")
    src_a, src_b = _sources()
    result = run_join(src_a, src_b, _hmj(), stop_after=10, checks=checks)
    assert not result.completed
    assert checks.ok, checks.report()


def test_invalid_mode_rejected():
    with pytest.raises(ConfigurationError):
        InvariantChecks(mode="whatever")
    with pytest.raises(ConfigurationError):
        run_join(*_sources(), _hmj(), checks=object())


# -- each invariant fires on a matching defect ------------------------------


class _DuplicatingSHJ(SymmetricHashJoin):
    """Emits every match twice — violates Theorem 2."""

    def on_tuple(self, t):
        self.charge_tuple()
        matches, candidates, _ = self.table.probe_insert(t)
        self.charge_probe(candidates)
        for match in matches:
            self.emit(t, match, self.PHASE)
            self.emit(t, match, self.PHASE)


class _NeverFinishingSHJ(SymmetricHashJoin):
    """finish() returns without concluding the protocol."""

    def finish(self, budget):
        pass


class _ClockRewindingSHJ(SymmetricHashJoin):
    """Rewinds the virtual clock once, mid-run (a broken resync).

    The rewind happens after the tuple's emissions and spans several
    arrival gaps, so the kernel probe sees the clock move backwards
    across a dispatch boundary while no result is ever recorded at a
    rewound instant (that would trip the recorder's own guard first).
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._rewound = False

    def on_tuple(self, t):
        super().on_tuple(t)
        if not self._rewound and self.clock.now > 0.01:
            self._rewound = True
            self.clock.resync(self.clock.now - 0.005)


class _OverBudgetSHJ(SymmetricHashJoin):
    """Claims more resident tuples than its grant allows."""

    def memory_usage(self):
        return (100, 10)


class _PsychicSHJ(SymmetricHashJoin):
    """Emits a pair before its partner tuple has arrived."""

    def __init__(self, future_partner, **kwargs):
        super().__init__(**kwargs)
        self._future = future_partner
        self._cheated = False

    def on_tuple(self, t):
        if not self._cheated and t.source != self._future.source:
            self._cheated = True
            if t.key == self._future.key:
                self.emit(t, self._future, "cheat")
        super().on_tuple(t)


def _run_broken(operator, mode="collect", n=40, **run_kwargs):
    spec = WorkloadSpec(n_a=n, n_b=n, key_range=10, seed=3)
    rel_a, rel_b = make_relation_pair(spec)
    src_a = NetworkSource(rel_a, ConstantRate(2000.0), seed=11)
    src_b = NetworkSource(rel_b, ConstantRate(2000.0), seed=22)
    checks = InvariantChecks(mode=mode)
    run_join(src_a, src_b, operator, checks=checks, **run_kwargs)
    return checks


def _checks_fired(checks):
    return {v.check for v in checks.violations}


def test_duplicate_results_detected():
    checks = _run_broken(_DuplicatingSHJ())
    assert "duplicate-result" in _checks_fired(checks)


def test_duplicate_results_raise_in_raise_mode():
    with pytest.raises(ConformanceViolationError, match="duplicate-result"):
        _run_broken(_DuplicatingSHJ(), mode="raise")


def test_unfinished_operator_detected():
    checks = _run_broken(_NeverFinishingSHJ())
    assert "not-finished" in _checks_fired(checks)


def test_kernel_clock_rewind_detected():
    # Per-event delivery: the probe observes the clock at dispatch
    # granularity, and a batch resyncs forward before the probe runs.
    checks = _run_broken(_ClockRewindingSHJ(), batch_delivery=False)
    assert "kernel-clock-rewind" in _checks_fired(checks)


def test_memory_over_grant_detected():
    checks = _run_broken(_OverBudgetSHJ())
    assert "memory-over-grant" in _checks_fired(checks)


def test_result_before_arrival_detected():
    spec = WorkloadSpec(n_a=40, n_b=40, key_range=10, seed=3)
    rel_a, rel_b = make_relation_pair(spec)
    # Pair A's first arrival with the *last* matching B tuple: its slot
    # in B's arrival schedule lies far in the clock's future.
    first_key = rel_a[0].key
    matching = [t for t in rel_b.tuples if t.key == first_key]
    assert matching, "seeded workload must contain a match for the first key"
    src_a = NetworkSource(rel_a, ConstantRate(2000.0), seed=11)
    src_b = NetworkSource(rel_b, ConstantRate(2000.0), seed=22)
    checks = InvariantChecks(mode="collect")
    run_join(src_a, src_b, _PsychicSHJ(matching[-1]), checks=checks)
    assert "result-before-arrival" in _checks_fired(checks)


class _ClairvoyantSHJ(SymmetricHashJoin):
    """Pairs the first opposite-side tuple with a partner not yet arrived.

    The partner is named by its identity as the node sees it —
    ``(side, tid)`` — and borrows the key of the tuple it pairs with.
    """

    def __init__(self, side, tid):
        super().__init__()
        self._side = side
        self._tid = tid
        self._cheated = False

    def on_tuple(self, t):
        if not self._cheated and t.source != self._side:
            self._cheated = True
            self.emit(t, Tuple(key=t.key, tid=self._tid, source=self._side), "cheat")
        super().on_tuple(t)


@pytest.mark.parametrize("shape", ["one-join", "chain-root"])
def test_plan_result_before_arrival_detected(shape):
    """Every plan node checks causality against its direct leaves.

    The partner is identified as the node sees it — by the side its
    leaf plays, not by its relation's label: the one-join plan puts the
    B-labelled relation on the A side, and the chain's root joins a
    child's synthetic tuples against a leaf.  B's last tuple arrives
    far in the clock's future.
    """
    spec = WorkloadSpec(n_a=40, n_b=40, key_range=10, seed=3)
    rel_a, rel_b = make_relation_pair(spec)
    src_a = NetworkSource(rel_a, ConstantRate(2000.0), seed=11)
    src_b = NetworkSource(rel_b, ConstantRate(2000.0), seed=22)
    late_tid = rel_b.tuples[-1].tid
    if shape == "one-join":
        plan = join(
            leaf(src_b), leaf(src_a), lambda: _ClairvoyantSHJ(SOURCE_A, late_tid),
            label="root",
        )
    else:
        rel_c, _ = make_relation_pair(WorkloadSpec(n_a=40, n_b=1, key_range=10, seed=4))
        plan = join(
            join(
                leaf(src_a),
                leaf(NetworkSource(rel_c, ConstantRate(2000.0), seed=33)),
                SymmetricHashJoin,
            ),
            leaf(src_b),
            lambda: _ClairvoyantSHJ(SOURCE_B, late_tid),
            label="root",
        )
    checks = InvariantChecks(mode="collect")
    run_plan(plan, checks=checks)
    fired = {v.actor for v in checks.violations if v.check == "result-before-arrival"}
    assert fired == {"root"}


def test_merged_violations_tags_per_tenant():
    from repro.testing.checks import merged_violations

    clean = InvariantChecks(mode="collect")
    broken = InvariantChecks(mode="collect")
    broken._fire("duplicate-result", "SHJ", 1.5, "pair emitted twice")
    merged = merged_violations([("tenant-0", clean), ("tenant-1", broken)])
    assert len(merged) == 1
    assert merged[0].startswith("tenant-1: ")
    assert "duplicate-result" in merged[0]
    assert merged_violations([]) == []
