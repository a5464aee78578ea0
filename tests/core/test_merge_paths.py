"""Merge-pass equivalence with the scalar oracle, under suspension.

The production (columnar) merge pass must be observationally
indistinguishable from the scalar per-tuple reference in
:mod:`repro.testing.scalar_merge`: identical result order, identical
per-result (time, io, phase) triples, identical final clock and I/O
totals — and all of that must hold when the pass is suspended at every
single budget boundary, because the engine can interrupt a merge
between any two units of work, and when every budget carries a
first-k stop predicate, under which each result is published the
moment it is produced.
"""

import random

import pytest

from repro.core.merging import MergeScheduler
from repro.errors import ConfigurationError
from repro.metrics.recorder import MetricsRecorder
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.testing.scalar_merge import ScalarMergeScheduler

PAGE = 4
N_GROUPS = 3
FAN_IN = 2

#: Merge pass under test -> scheduler class (the scalar oracle and the
#: production columnar pass).
SCHEDULERS = {"scalar": ScalarMergeScheduler, "columnar": MergeScheduler}


def sorted_tuples(rng, n, source, key_range, tid_start, with_payload=False):
    ts = [
        Tuple(
            key=rng.randrange(key_range),
            tid=tid_start + i,
            source=source,
            payload=(f"p{tid_start + i}" if with_payload else None),
        )
        for i in range(n)
    ]
    ts.sort(key=Tuple.sort_key)
    return ts


def scheduler_for(merge_path, costs, fan_in, n_groups):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, costs)
    recorder = MetricsRecorder(clock, disk, keep_results=True)
    scheduler = SCHEDULERS[merge_path](
        disk=disk,
        clock=clock,
        costs=disk.costs,
        partition_prefix="test",
        fan_in=fan_in,
        n_groups=n_groups,
        recorder=recorder,
    )
    return scheduler, clock, disk, recorder


def build(merge_path):
    """A scheduler over a shared deterministic flush history."""
    scheduler, clock, disk, recorder = scheduler_for(
        merge_path, CostModel(page_size=PAGE), FAN_IN, N_GROUPS
    )
    rng = random.Random(42)
    tid = 0
    for group in range(N_GROUPS):
        for flush in range(4):
            # Uneven sides, duplicate keys, the occasional empty side,
            # payloads on one flush — every shape a real run produces.
            n_a = rng.randrange(0, 11) if flush != 1 else 0
            n_b = rng.randrange(1, 11)
            ts_a = sorted_tuples(
                rng, n_a, SOURCE_A, 12, tid, with_payload=(flush == 2)
            )
            ts_b = sorted_tuples(
                rng, n_b, SOURCE_B, 12, tid + 100, with_payload=(flush == 2)
            )
            tid += 200
            if not ts_a and not ts_b:
                ts_b = sorted_tuples(rng, 1, SOURCE_B, 12, tid)
                tid += 1
            scheduler.register_flush(group, ts_a, ts_b)
    scheduler.mark_input_ended()
    return scheduler, clock, disk, recorder


def build_merge_heavy(merge_path):
    """Everything spilled: the state HMJ reaches with memory for ~10%.

    8 groups x 6 flushes x 2 sides x 42 tuples (4032 in all) on
    default-size pages.  Six flushes against a fan-in of 4 re-merge
    runs over several passes, and 504 keys give about four duplicates
    per key per side.
    """
    n_groups, per_side, key_range = 8, 42, 504
    scheduler, clock, disk, recorder = scheduler_for(
        merge_path, CostModel(), 4, n_groups
    )
    rng = random.Random(7)
    tid = 0
    for group in range(n_groups):
        for _ in range(6):
            ts_a = sorted_tuples(rng, per_side, SOURCE_A, key_range, tid)
            ts_b = sorted_tuples(rng, per_side, SOURCE_B, key_range, tid + per_side)
            tid += 2 * per_side
            scheduler.register_flush(group, ts_a, ts_b)
    scheduler.mark_input_ended()
    return scheduler, clock, disk, recorder


def drain(scheduler, clock, disk, recorder, step=None, stop_at=None):
    """Run all merge work; with ``step``, suspend at every boundary.

    With ``stop_at`` every budget carries ``stop_when`` for the first
    ``stop_at`` results, and the run ends once that predicate holds.
    """
    stop = None if stop_at is None else (lambda: recorder.count >= stop_at)
    if step is None:
        scheduler.work(WorkBudget.unbounded(clock, stop_when=stop))
    else:
        while scheduler.has_result_work() and not (stop is not None and stop()):
            budget = WorkBudget(
                clock=clock, deadline=clock.now + step, stop_when=stop
            )
            scheduler.work(budget)
    return (
        [e.time for e in recorder.events],
        [e.io for e in recorder.events],
        [e.phase for e in recorder.events],
        [r.identity() for r in recorder.results],
        [(r.left.payload, r.right.payload) for r in recorder.results],
        clock.now,
        disk.io_count,
        disk.pages_read,
        disk.pages_written,
    )


@pytest.fixture(scope="module")
def scalar_uninterrupted():
    return drain(*build("scalar"))


def test_cross_path_triples_identical(scalar_uninterrupted):
    assert drain(*build("columnar")) == scalar_uninterrupted


@pytest.mark.parametrize("step_pages", [None, 2.5])
def test_cross_path_triples_identical_merge_heavy(step_pages):
    step = None if step_pages is None else CostModel().io_time(1) * step_pages
    scalar = drain(*build_merge_heavy("scalar"), step=step)
    assert scalar[0] and scalar[-2] > 0  # results, and pages read back
    assert drain(*build_merge_heavy("columnar"), step=step) == scalar


@pytest.mark.parametrize("merge_path", ["scalar", "columnar"])
def test_suspension_at_every_boundary_is_invisible(
    merge_path, scalar_uninterrupted
):
    # A deadline one tenth of a compare cost ahead expires at the very
    # next charging unit, so the pass suspends at (essentially) every
    # budget boundary it has — the interrupted run must be
    # byte-identical to the uninterrupted scalar reference.
    costs = CostModel(page_size=PAGE)
    step = costs.cpu_compare_cost / 10.0
    assert drain(*build(merge_path), step=step) == scalar_uninterrupted


@pytest.mark.parametrize("merge_path", ["scalar", "columnar"])
def test_coarse_suspension_is_invisible(merge_path, scalar_uninterrupted):
    # Page-scale budget slices: suspensions land mid-streak, mid-cross
    # product, and mid-drain rather than at every unit.
    costs = CostModel(page_size=PAGE)
    step = costs.io_time(1) * 2.5
    assert drain(*build(merge_path), step=step) == scalar_uninterrupted


#: First-k stop counts: the first result, mid-pass, and several passes in.
STOP_COUNTS = [1, 7, 40]


@pytest.fixture(scope="module")
def scalar_stopped():
    return {k: drain(*build("scalar"), stop_at=k) for k in STOP_COUNTS}


@pytest.mark.parametrize("merge_path", ["scalar", "columnar"])
@pytest.mark.parametrize("k", STOP_COUNTS)
def test_suspension_at_every_boundary_under_stop_is_invisible(
    merge_path, k, scalar_stopped
):
    step = CostModel(page_size=PAGE).cpu_compare_cost / 10.0
    stopped = scalar_stopped[k]
    assert len(stopped[0]) == k
    assert drain(*build(merge_path), step=step, stop_at=k) == stopped


@pytest.mark.parametrize("merge_path", ["scalar", "columnar"])
@pytest.mark.parametrize("k", STOP_COUNTS)
def test_coarse_suspension_under_stop_is_invisible(
    merge_path, k, scalar_stopped
):
    step = CostModel(page_size=PAGE).io_time(1) * 2.5
    assert drain(*build(merge_path), step=step, stop_at=k) == scalar_stopped[k]


def test_columnar_requires_recorder():
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel())
    with pytest.raises(ConfigurationError):
        MergeScheduler(
            disk=disk,
            clock=clock,
            costs=disk.costs,
            partition_prefix="x",
            fan_in=2,
            n_groups=1,
        )
