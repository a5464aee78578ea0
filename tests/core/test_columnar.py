"""Unit tests for the columnar data plane's building blocks.

The end-to-end equivalence of the columnar delivery path is pinned by
``tests/sim/test_batch_equivalence.py``; this file tests the pieces in
isolation: :class:`~repro.core.columnar.ColumnBatch` boxing, the hash
table's array-native :meth:`~repro.core.hashing.DualHashTable.
probe_insert_batch` against its own scalar path, boxing-free group
discards, the recorder's column-slice appends, the kernel's vectorized
run extraction against the scalar merge, and the native-float
guarantees of the source schedule (no numpy scalar boxing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.columnar import (
    _VECTOR_WALK_MIN_ROWS,
    _WALK_ROUNDS,
    ColumnBatch,
    _busy_period_walk,
    _clock_walk,
)
from repro.core.hashing import DualHashTable
from repro.errors import SimulationError
from repro.metrics.recorder import MetricsRecorder
from repro.net.arrival import ConstantRate, PoissonArrival
from repro.net.source import NetworkSource
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple, make_result
from repro.testing.scalar_runs import ScalarRunScheduler
from repro.testing.scalar_walk import clock_walk_oracle
from repro.workloads.generator import make_relation_pair, paper_workload


def _batch_from(rows):
    """Build a ColumnBatch from ``(key, tid, is_a, time)`` rows."""
    keys, tids, isa, times = zip(*rows)
    return ColumnBatch(
        keys=np.asarray(keys, dtype=np.int64),
        tids=np.asarray(tids, dtype=np.int64),
        is_a=np.asarray(isa, dtype=bool),
        times=np.asarray(times, dtype=np.float64),
    )


# -- ColumnBatch boxing ------------------------------------------------------


def test_column_batch_to_tuples_round_trip():
    batch = _batch_from(
        [(5, 0, True, 0.1), (7, 0, False, 0.2), (5, 1, False, 0.2)]
    )
    tuples, times = batch.to_tuples()
    assert times == [0.1, 0.2, 0.2]
    assert all(type(t) is float for t in times)
    assert [(t.key, t.tid, t.source) for t in tuples] == [
        (5, 0, SOURCE_A),
        (7, 0, SOURCE_B),
        (5, 1, SOURCE_B),
    ]
    # Boxed fields are native Python ints, not numpy scalars.
    assert all(type(t.key) is int and type(t.tid) is int for t in tuples)


def test_column_batch_to_tuples_carries_payloads():
    batch = _batch_from([(3, 0, True, 0.0), (3, 0, False, 0.1)])
    batch.payloads = ["pa", "pb"]
    tuples, _ = batch.to_tuples()
    assert [t.payload for t in tuples] == ["pa", "pb"]


# -- probe_insert_batch vs the scalar path -----------------------------------


def _scalar_oracle(table, batch, payloads=None):
    """Replay the batch through probe_insert; collect the observables.

    Returns per-row candidates and match counts, the emission-ordered
    ``(row, build tid)`` pairs, and the build payload of each pair.
    """
    candidates = []
    match_counts = []
    pairs = []
    build_payloads = []
    for i in range(len(batch)):
        t = Tuple(
            key=int(batch.keys[i]),
            tid=int(batch.tids[i]),
            source=SOURCE_A if batch.is_a[i] else SOURCE_B,
            payload=None if payloads is None else payloads[i],
        )
        matches, cand, _bucket = table.probe_insert(t)
        candidates.append(cand)
        match_counts.append(len(matches))
        pairs.extend((i, m.tid) for m in matches)
        build_payloads.extend(m.payload for m in matches)
    return candidates, match_counts, pairs, build_payloads


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_buckets", [1, 7, 64])
def test_probe_insert_batch_matches_scalar_path(seed, n_buckets):
    rng = np.random.default_rng(seed)
    n = 300
    keys = rng.integers(0, 40, size=n).astype(np.int64)  # dense: many matches
    is_a = rng.random(n) < 0.5
    tids = np.zeros(n, dtype=np.int64)
    tids[is_a] = np.arange(int(is_a.sum()))
    tids[~is_a] = np.arange(n - int(is_a.sum()))
    batch = ColumnBatch(
        keys=keys, tids=tids, is_a=is_a, times=np.zeros(n)
    )

    scalar_table = DualHashTable(n_buckets=n_buckets, n_groups=1)
    # Pre-populate both tables identically so probes hit existing rows
    # as well as earlier batch rows.
    batch_table = DualHashTable(n_buckets=n_buckets, n_groups=1)
    for k in range(0, 40, 3):
        for table in (scalar_table, batch_table):
            table.insert(Tuple(key=k, tid=1000 + k, source=SOURCE_A))
            table.insert(Tuple(key=k, tid=2000 + k, source=SOURCE_B))

    candidates, match_counts, pairs, _ = _scalar_oracle(scalar_table, batch)
    plan = batch_table.probe_insert_batch(
        batch.keys,
        batch.tids,
        batch.is_a,
        None,
        batch_table.hash_batch(batch.keys),
    )
    assert plan.candidates.tolist() == candidates
    assert plan.match_counts.tolist() == match_counts
    assert plan.total_matches == sum(match_counts)
    assert list(zip(plan.probe_rows.tolist(), plan.build_tids.tolist())) == pairs
    # Both tables end in the same state.
    assert scalar_table.total_tuples() == batch_table.total_tuples()
    for source in (SOURCE_A, SOURCE_B):
        for b in range(n_buckets):
            assert (
                scalar_table.bucket_contents(source, b)
                == batch_table.bucket_contents(source, b)
            )


def _all_buckets(table):
    return [b for g in range(table.n_groups) for b in table.buckets_in_group(g)]


@pytest.mark.parametrize("need_pairs", [True, False])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("payloads", ["none", "stored", "batch"])
@pytest.mark.parametrize("seed", [0, 1])
def test_probe_insert_batch_matches_scalar_path_stored_heavy(
    seed, payloads, split, need_pairs
):
    """A stored population far larger than the batch, in many buckets.

    Covers the segment's one key-sorted match join against the
    scalar path: payloads on the stored side only or on both sides, a
    sub-split group (matches live in extension buckets), and the
    counts-only mode every ``keep_results=False`` run uses.
    """
    rng = np.random.default_rng(seed)
    key_range = 150
    scalar_table = DualHashTable(n_buckets=16, n_groups=4)
    batch_table = DualHashTable(n_buckets=16, n_groups=4)
    for i in range(2000):
        stored = Tuple(
            key=int(rng.integers(0, key_range)),
            tid=10_000 + i,
            source=SOURCE_A if rng.random() < 0.5 else SOURCE_B,
            payload=f"s{i}" if payloads != "none" and i % 3 else None,
        )
        for table in (scalar_table, batch_table):
            table.insert(stored)
            if split and i == 1500:
                # Split mid-fill: stored tuples both scattered by the
                # split and inserted into extension buckets afterwards.
                table.subsplit_group(1, 3)

    n = 200
    keys = rng.integers(0, key_range, size=n).astype(np.int64)
    is_a = rng.random(n) < 0.5
    tids = np.arange(n, dtype=np.int64)
    batch = ColumnBatch(keys=keys, tids=tids, is_a=is_a, times=np.zeros(n))
    batch_pays = [f"b{i}" if i % 2 else None for i in range(n)]
    if payloads != "batch":
        batch_pays = None

    candidates, match_counts, pairs, build_pays = _scalar_oracle(
        scalar_table, batch, batch_pays
    )
    plan = batch_table.probe_insert_batch(
        keys, tids, is_a, batch_pays, batch_table.hash_batch(keys),
        need_pairs=need_pairs,
    )
    assert plan.candidates.tolist() == candidates
    assert plan.match_counts.tolist() == match_counts
    assert plan.total_matches == sum(match_counts) > n
    if need_pairs:
        assert list(zip(plan.probe_rows.tolist(), plan.build_tids.tolist())) == pairs
        if payloads == "none":
            assert plan.build_payloads is None
        else:
            assert plan.build_payloads == build_pays
    else:
        assert plan.probe_rows is None and plan.build_tids is None
    assert _all_buckets(scalar_table) == _all_buckets(batch_table)
    for source in (SOURCE_A, SOURCE_B):
        for b in _all_buckets(scalar_table):
            assert (
                scalar_table.bucket_contents(source, b)
                == batch_table.bucket_contents(source, b)
            )


def test_probe_insert_batch_counts_only_skips_pairs():
    table = DualHashTable(n_buckets=4, n_groups=1)
    table.insert(Tuple(key=1, tid=0, source=SOURCE_B))
    plan = table.probe_insert_batch(
        np.array([1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([True]),
        None,
        table.hash_batch(np.array([1], dtype=np.int64)),
        need_pairs=False,
    )
    assert plan.total_matches == 1
    assert plan.probe_rows is None
    assert plan.build_tids is None


def test_discard_group_clears_without_boxing():
    table = DualHashTable(n_buckets=8, n_groups=2)
    for k in range(50):
        table.insert(Tuple(key=k, tid=k, source=SOURCE_A))
    before = table.total_tuples()
    expected = sum(
        table.bucket_size(SOURCE_A, b) for b in table.buckets_in_group(0)
    )
    dropped = table.discard_group(SOURCE_A, 0)
    assert dropped == expected
    assert table.total_tuples() == before - expected
    assert all(
        table.bucket_size(SOURCE_A, b) == 0 for b in table.buckets_in_group(0)
    )
    # The other group and source are untouched.
    assert table.discard_group(SOURCE_A, 0) == 0


# -- the clock walk vs the per-tuple oracle ----------------------------------

_COSTS = st.builds(
    CostModel,
    cpu_tuple_cost=st.floats(min_value=1e-7, max_value=1e-3),
    cpu_compare_cost=st.floats(min_value=1e-8, max_value=1e-4),
    cpu_result_cost=st.floats(min_value=1e-8, max_value=1e-4),
)


def _walk_segment(seed, n, costs, paired, busy_run, backlog, heavy):
    """One segment's ``(now, arrivals, candidates, match counts)``.

    Gaps are idle (longer than a row's charges), zero (``paired``: A
    and B rows at one instant, as under equal constant rates) or
    shorter than the tuple cost; ``busy_run`` rows from a random point
    on arrive at one instant, one busy period that long; ``backlog``
    rows arrived before ``now``; ``heavy`` rows emit many results.
    """
    rng = np.random.default_rng(seed)
    idle = 200 * costs.cpu_tuple_cost + 1e-3
    kind = rng.choice(3, size=n, p=[0.4, paired, 0.6 - paired])
    gaps = np.where(kind == 0, idle, np.where(kind == 1, 0.0, costs.cpu_tuple_cost / 3))
    if busy_run and n > 1:
        at = int(rng.integers(0, n))
        gaps[at + 1:at + busy_run] = 0.0
    ats = 0.25 + np.cumsum(gaps)
    cands = rng.integers(0, 30, size=n) * (rng.random(n) < 0.7)
    mcounts = rng.integers(0, 4, size=n) * (rng.random(n) < 0.4)
    mcounts[rng.integers(0, n, size=heavy)] = rng.integers(20, 80, size=heavy)
    now = float(ats[min(backlog, n - 1)]) if backlog else 0.1
    return now, ats, cands.astype(np.int64), mcounts.astype(np.int64)


def _walk_oracle(now, ats, cands, mcounts, costs, skip_first):
    return clock_walk_oracle(
        now, ats.tolist(), cands.tolist(), mcounts.tolist(), costs, skip_first
    )


def _walk_charges(costs):
    return costs.cpu_tuple_cost, costs.cpu_compare_cost, costs.result_time(1)


_WALK_SHAPES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    costs=_COSTS,
    paired=st.sampled_from([0.0, 0.3, 0.6]),
    backlog=st.sampled_from([0, 1, _WALK_ROUNDS, _WALK_ROUNDS + 1, 40]),
    heavy=st.integers(min_value=0, max_value=3),
    skip_first=st.booleans(),
)


@given(
    n=st.integers(min_value=1, max_value=60),
    busy_run=st.sampled_from([0, 2, _WALK_ROUNDS, _WALK_ROUNDS + 1, _WALK_ROUNDS + 2, 30]),
    **_WALK_SHAPES,
)
def test_busy_period_walk_settles_an_exact_prefix(
    n, busy_run, seed, costs, paired, backlog, heavy, skip_first
):
    """Rows ``[0, settled)`` are bit-equal to the per-tuple oracle, and
    the oracle resumed from the returned end reproduces the rest."""
    now, ats, cands, mcounts = _walk_segment(seed, n, costs, paired, busy_run, backlog, heavy)
    expected = _walk_oracle(now, ats, cands, mcounts, costs, skip_first)
    head, end, settled = _busy_period_walk(
        now, ats, cands, mcounts, *_walk_charges(costs), skip_first
    )
    assert 1 <= settled <= n
    tail, final = _walk_oracle(
        end, ats[settled:], cands[settled:], mcounts[settled:], costs, skip_first and settled == 0
    )
    assert (head.tolist() + tail, final) == expected


@given(
    n=st.sampled_from([1, _WALK_ROUNDS + 1, _VECTOR_WALK_MIN_ROWS - 1,
                       _VECTOR_WALK_MIN_ROWS, _VECTOR_WALK_MIN_ROWS + 1, 1500]),
    busy_run=st.sampled_from([0, 2, _WALK_ROUNDS + 2, 300]),
    **_WALK_SHAPES,
)
def test_clock_walk_is_bit_equal_to_per_tuple_oracle(
    n, busy_run, seed, costs, paired, backlog, heavy, skip_first
):
    now, ats, cands, mcounts = _walk_segment(seed, n, costs, paired, busy_run, backlog, heavy)
    times, end = _clock_walk(now, ats, cands, mcounts, *_walk_charges(costs), skip_first)
    assert (times, end) == _walk_oracle(now, ats, cands, mcounts, costs, skip_first)
    assert all(type(t) is float for t in times) and type(end) is float


def test_busy_period_walk_converges_on_short_periods_and_hands_off_long_ones():
    costs = CostModel()
    # Pairs at one instant: every busy period is two rows long.
    ats = np.repeat(np.arange(600) * 1e-3, 2)
    cands = np.ones(1200, dtype=np.int64)
    mcounts = np.tile(np.array([0, 2], dtype=np.int64), 600)
    _, _, settled = _busy_period_walk(0.0, ats, cands, mcounts, *_walk_charges(costs), False)
    assert settled == 1200
    # A burst at row 100 longer than the round limit: the walk stops
    # where the burst starts.
    ats[100:100 + 2 * _WALK_ROUNDS] = ats[100]
    _, _, settled = _busy_period_walk(0.0, ats, cands, mcounts, *_walk_charges(costs), False)
    assert settled == 101
    times, end = _clock_walk(0.0, ats, cands, mcounts, *_walk_charges(costs), False)
    assert (times, end) == _walk_oracle(0.0, ats, cands, mcounts, costs, False)


# -- recorder column-slice appends -------------------------------------------


def _recorder(keep_results, clock=None):
    clock = clock or VirtualClock()
    disk = SimulatedDisk(clock, CostModel())
    return MetricsRecorder(clock, disk, keep_results=keep_results)


class _FakeSegment:
    """Stands in for ResultColumns: counts materialise() calls."""

    def __init__(self, results):
        self._results = results
        self.materialised = 0

    def materialise(self):
        self.materialised += 1
        return list(self._results)


def _result(k=1):
    return type(
        "R", (), {"left": Tuple(key=k, tid=0, source=SOURCE_A)}
    )()


def test_append_batch_columns_counts_only():
    recorder = _recorder(keep_results=False)
    recorder.append_batch_columns([0.5, 0.7], io=3, phase="hashing")
    assert recorder.count == 2
    assert recorder.time_to_kth(2) == 0.7
    assert recorder.io_to_kth(1) == 3
    assert recorder.count_in_phase("hashing") == 2
    events = list(recorder.iter_events())
    assert [(e.k, e.time, e.io, e.phase) for e in events] == [
        (1, 0.5, 3, "hashing"),
        (2, 0.7, 3, "hashing"),
    ]


def test_append_batch_columns_requires_results_when_retaining():
    recorder = _recorder(keep_results=True)
    assert recorder.needs_results
    with pytest.raises(SimulationError):
        recorder.append_batch_columns([0.1], io=0, phase="hashing")


def test_append_batch_columns_requires_results_for_taps():
    recorder = _recorder(keep_results=False)
    assert not recorder.needs_results
    recorder.add_tap(lambda result, event: None)
    assert recorder.needs_results
    with pytest.raises(SimulationError):
        recorder.append_batch_columns([0.1], io=0, phase="hashing")


def test_append_batch_columns_materialises_lazily():
    recorder = _recorder(keep_results=True)
    segment = _FakeSegment([_result(1), _result(2)])
    recorder.append_batch_columns([0.1, 0.2], io=0, phase="hashing", results=segment)
    assert recorder.count == 2
    assert segment.materialised == 0  # nothing read yet
    assert len(recorder.results) == 2
    assert segment.materialised == 1
    # Re-reading does not re-materialise.
    assert len(recorder.results) == 2
    assert segment.materialised == 1


def _join_result():
    return make_result(
        Tuple(key=9, tid=0, source=SOURCE_A), Tuple(key=9, tid=0, source=SOURCE_B)
    )


def test_append_batch_columns_interleaves_with_record():
    clock = VirtualClock()
    recorder = _recorder(keep_results=False, clock=clock)
    recorder.append_batch_columns([0.1], io=0, phase="hashing")
    clock.advance_to(0.1)
    # A later per-event record keeps k numbering continuous even though
    # the earlier events were never boxed.
    event = recorder.record(_join_result(), phase="cleanup")
    assert event.k == 2
    assert [e.k for e in recorder.iter_events()] == [1, 2]
    assert recorder.count_in_phase("cleanup") == 1


def test_append_batch_columns_keeps_time_order_with_record():
    # A batch may not start before the last recorded result ...
    clock = VirtualClock()
    recorder = _recorder(keep_results=False, clock=clock)
    clock.advance_to(0.5)
    recorder.record(_join_result(), phase="hashing")
    with pytest.raises(SimulationError, match="before previous result"):
        recorder.append_batch_columns([0.4, 0.6], io=0, phase="hashing")
    # ... and a record may not fall before a batch's last result.
    recorder = _recorder(keep_results=False)
    recorder.append_batch_columns([0.1, 0.3], io=0, phase="hashing")
    with pytest.raises(SimulationError, match="before previous result"):
        recorder.record(_join_result(), phase="cleanup")


# -- vectorized run extraction vs the scalar merge ---------------------------


class _FakeStream:
    """A pre-scheduled stream exposing its float64 schedule."""

    def __init__(self, times):
        self.arr = np.asarray(times, dtype=np.float64)
        self.lst = self.arr.tolist()
        self.i = 0

    def peek(self):
        return self.lst[self.i] if self.i < len(self.lst) else None

    def times(self):
        return self.arr, self.i

    def deliver_one(self):
        self.i += 1


def _drain_runs(
    streams_times, timer_times, threshold, oracle, outside=None, outside_slot=0
):
    """Drain grouped streams; return every delivered run.

    ``oracle`` selects the scalar reference kernel
    (:class:`~repro.testing.scalar_runs.ScalarRunScheduler`) instead of
    the production one.  ``outside`` optionally registers one more
    stream outside the batch group, after ``outside_slot`` group
    members: its arrivals bound runs, and win ties against the members
    registered after it.
    """
    clock = VirtualClock()
    kernel = ScalarRunScheduler if oracle else EventScheduler
    scheduler = kernel(clock=clock, blocking_threshold=threshold)
    streams = [_FakeStream(t) for t in streams_times]
    by_index = {}
    runs = []

    def deliver(indices, times):
        order, instants = indices.tolist(), times.tolist()
        for index, at in zip(order, instants):
            clock.advance_to(at)
            by_index[index].deliver_one()
        runs.append((order, instants))

    scheduler.deliver_run = deliver
    for slot, stream in enumerate(streams):
        if outside is not None and slot == outside_slot:
            lone = _FakeStream(outside)
            scheduler.add_stream(lone.peek, lone.deliver_one)
        index = scheduler.add_stream(stream.peek, stream.deliver_one, times=stream.times)
        by_index[index] = stream
    for at in timer_times:
        scheduler.call_at(at, lambda: None)
    scheduler.run()
    return runs


@pytest.mark.parametrize("seed", range(6))
def test_array_extraction_matches_scalar_merge(seed):
    """Same runs, same order, same instants — bound, tie, and gap cuts.

    Times sit on a coarse grid so exact cross-stream ties (and ties
    with timers and arrivals outside the group) actually occur.
    """
    rng = np.random.default_rng(seed)

    def schedule(n):
        return np.sort(rng.integers(0, 60, size=n)).astype(np.float64) * 0.01

    streams = [schedule(40), schedule(40)]
    timers = sorted(set((rng.integers(0, 60, size=3) * 0.01).tolist()))
    threshold = 0.03  # grid gaps of >= 4 steps break runs
    scalar = _drain_runs(streams, timers, threshold, oracle=True)
    arrays = _drain_runs(streams, timers, threshold, oracle=False)
    assert scalar == arrays
    assert sum(len(order) for order, _ in scalar) == 80


@pytest.mark.parametrize("members", [3, 4])
@pytest.mark.parametrize("outside_slot", [0, 1, 3])
@pytest.mark.parametrize("seed", range(3))
def test_array_extraction_matches_scalar_merge_many_members(members, outside_slot, seed):
    """Groups of 3-4 members (plan leaves): k-way heap order and ties.

    A coarse grid makes exact ties across several members, timers, and
    an outside stream common; the outside stream sits before, between,
    or after members, so some members win bound ties and others lose.
    """
    rng = np.random.default_rng(seed)
    streams = [
        np.sort(rng.integers(0, 80, size=int(rng.integers(20, 50)))) * 0.01
        for _ in range(members)
    ]
    timers = sorted(set((rng.integers(0, 80, size=4) * 0.01).tolist()))
    outside = np.sort(rng.integers(0, 80, size=6)) * 0.01
    scalar, arrays = (
        _drain_runs(streams, timers, 0.03, oracle, outside, outside_slot)
        for oracle in (True, False)
    )
    assert scalar == arrays
    assert sum(len(order) for order, _ in scalar) == sum(len(t) for t in streams)
    assert max(len(set(order)) for order, _ in scalar) >= 3


def _bursts(rng, n_bursts, burst_len, spacing, gap):
    """Sorted times: ``n_bursts`` bursts of ``spacing``-apart arrivals."""
    times = []
    start = 0.0
    for _ in range(n_bursts):
        length = int(rng.integers(1, burst_len + 1))
        times.extend(start + spacing * np.arange(length))
        start = times[-1] + gap * rng.integers(1, 3)
    return np.asarray(times)


@pytest.mark.parametrize(
    "shape",
    [
        "long-run", "bursty", "window-ties", "bounded", "bounded-mixed",
        "one-member", "four-members",
    ],
)
@pytest.mark.parametrize("seed", range(2))
def test_array_extraction_matches_scalar_merge_long_schedules(shape, seed):
    """Thousands of arrivals: runs outgrow the first extraction window.

    The windowed merge must cut exactly where the scalar merge does —
    across window growth, many short runs (each resizing the next first
    window), equal times straddling a window's last element, and timer
    and outside-arrival bounds inside long runs.
    """
    rng = np.random.default_rng(seed)
    timers: list[float] = []
    outside = None
    outside_slot = 0
    threshold = 0.5
    if shape == "long-run":
        # One run per stream pair far beyond the first window.
        streams = [np.sort(rng.random(6000)) * 10, np.sort(rng.random(5000)) * 10]
    elif shape == "bursty":
        # Hundreds of short runs, then one long one.
        streams = [
            np.append(_bursts(rng, 300, 12, 0.01, 1.0), 2000 + np.arange(3000) * 0.01),
            np.append(_bursts(rng, 300, 12, 0.01, 1.0), 2000 + np.arange(2500) * 0.01),
        ]
    elif shape == "window-ties":
        # Coarse grid: long blocks of equal times on both streams, so
        # window edges land inside ties (within and across streams).
        streams = [
            np.repeat(np.arange(400) * 0.1, 9),
            np.repeat(np.arange(300) * 0.1, 13),
        ]
    elif shape.startswith("bounded"):
        # Timers and outside arrivals cut long runs, with exact ties;
        # "mixed" registers the outside stream between the members, so
        # one member wins its ties with the bound and the other loses.
        streams = [np.arange(4000) * 0.01, np.arange(3500) * 0.01]
        timers = [5.0, 12.34, 30.0]
        outside = np.array([7.77, 20.0, 20.0, 33.33])
        outside_slot = 1 if shape == "bounded-mixed" else 0
    elif shape == "four-members":
        # A star-4 plan's leaves: tied grids of different strides, with
        # timer and outside bounds splitting the member order 2 + 2.
        streams = [np.repeat(np.arange(600) * 0.01, k) for k in (2, 3, 1, 4)]
        timers = [1.5, 3.21]
        outside = np.array([2.0, 4.0, 4.0])
        outside_slot = 2
    else:
        # One member; it alone carries runs longer than the window.
        streams = [np.append(np.arange(3000) * 0.01, 100 + np.arange(2200) * 0.01)]
    scalar, arrays = (
        _drain_runs(streams, timers, threshold, oracle, outside, outside_slot)
        for oracle in (True, False)
    )
    assert scalar == arrays
    assert sum(len(order) for order, _ in scalar) == sum(len(t) for t in streams)
    assert max(len(order) for order, _ in scalar) > 1024


def test_array_extraction_window_edge_on_tied_bound():
    """A window ending inside a tie at the bound must grow, not cut.

    Member 0 wins ties against the outside arrival at 5.0 and member 1
    loses them.  The first window ends inside member 0's block of 5.0s,
    where member 1's first 5.0 would cut the run — but member 0's
    unmerged 5.0s still belong to it.
    """
    streams = [
        np.append(4.0 + 0.0009 * np.arange(1000), np.full(100, 5.0)),
        np.append(4.0 + 0.0009 * np.arange(1000) + 0.0004, np.full(10, 5.0)),
    ]
    scalar, arrays = (
        _drain_runs(streams, [], 0.5, oracle, np.array([5.0]), outside_slot=1)
        for oracle in (True, False)
    )
    assert scalar == arrays
    assert len(scalar[0][0]) == 2100


# -- native-float schedules (no numpy scalar boxing) -------------------------


def test_source_schedules_are_native_floats():
    """Batch times must arrive as native floats / float64 arrays.

    Regression for numpy scalar boxing: a ``np.float64`` leaking into
    the per-event path makes every downstream float add ~5x slower and
    can silently change repr-based diagnostics.
    """
    spec = paper_workload(64)
    rel_a, _ = make_relation_pair(spec)
    for arrivals in (ConstantRate(500.0), PoissonArrival(500.0)):
        source = NetworkSource(rel_a, arrivals, seed=3)
        times, cursor = source.pending_times()
        assert cursor == 0
        assert all(type(t) is float for t in times)
        arr, _ = source.pending_times_array()
        assert arr.dtype == np.float64
        assert arr.tolist() == times  # bit-exact twins
        assert type(source.peek_time()) is float
        popped_times, tuples = source.pop_batch(4)
        assert all(type(t) is float for t in popped_times)
        assert all(type(t.key) is int for t in tuples)


def test_generated_relations_hold_native_ints():
    spec = paper_workload(32)
    rel_a, rel_b = make_relation_pair(spec)
    for rel in (rel_a, rel_b):
        assert all(type(t.key) is int and type(t.tid) is int for t in rel.tuples)
