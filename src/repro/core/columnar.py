"""The columnar data plane: vectorized run-batch delivery.

The event kernel already delivers *run batches* — maximal runs of
consecutive arrivals — to the operators.  This module carries those
batches as columns end-to-end: a :class:`ColumnBatch` of contiguous
``keys``/``tids``/``times`` arrays flows from the network source
through the scheduler to an operator's ``on_column_batch``.  HMJ's
runs :func:`run_columnar_batch` on top of the hash table's
array-native :meth:`~repro.core.hashing.DualHashTable.
probe_insert_batch`; every other operator boxes the batch and replays
it through ``on_tuple``.  No ``Tuple`` is boxed on the hot path; results
reach the recorder as lazy :class:`ResultColumns` segments.

**Determinism.**  Float addition is non-associative, so any
reassociation of the virtual-clock recurrence (per-row cumsums,
per-segment partial sums) would drift from the per-tuple path in the
last bits and break the byte-identical ``(count, clock, io)`` triples
the equivalence suite pins.  The driver therefore walks the clock in
:func:`_clock_walk` with exactly the per-tuple charge sequence: each
float addition the per-tuple path makes, in its order.  A short
segment runs it as a sequential scalar loop; a long one runs it on
arrays, across all its busy periods at once (:func:`_busy_period_walk`),
because the only step that is not an addition is
``now = max(now, arrival)``.
Everything around the walk (hashing, bucket grouping, match finding,
inserts, summary deltas) runs on arrays too.

**Flush points.**  Memory can fill mid-batch.  The driver processes
the batch in segments of ``capacity - used`` rows, so a probe/insert
pass never overruns the budget; at a segment boundary it charges the
boundary row's arrival + per-tuple cost *first* (exactly as the
per-tuple loop does before noticing memory is full), writes the
mirrored clock and pool back, runs the operator's flush loop, and
re-mirrors — identical observable state at every flush to the
per-tuple path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.storage.tuples import SOURCE_A, SOURCE_B, JoinResult, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hashing import BatchProbeResult, DualHashTable
    from repro.joins.base import StreamingJoinOperator
    from repro.storage.memory import MemoryPool


@dataclass(slots=True)
class ColumnBatch:
    """One delivery run-batch as parallel columns in arrival order.

    Attributes:
        keys: int64 join keys.
        tids: int64 per-source tuple ids.
        is_a: boolean mask — True where the row comes from source A.
        times: float64 absolute arrival instants (non-decreasing).
        payloads: payload reference list, or ``None`` when every
            payload is ``None`` (the common generated-workload case).
    """

    keys: np.ndarray
    tids: np.ndarray
    is_a: np.ndarray
    times: np.ndarray
    payloads: list | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def to_tuples(self) -> tuple[list[Tuple], list[float]]:
        """Box the batch for the tuple-based fallback paths.

        Returns ``(tuples, times)`` exactly as the engine's tuple
        delivery would have built them — same values, same order — so
        operators without a columnar path (or with overridden per-tuple
        hooks) process the identical stream.
        """
        sources = [SOURCE_A if f else SOURCE_B for f in self.is_a.tolist()]
        # Positional construction through ``map``: boxing is the whole
        # cost of this path, and keyword calls cost a third more.
        columns = [self.keys.tolist(), self.tids.tolist(), sources]
        if self.payloads is not None:
            columns.append(self.payloads)
        return list(map(Tuple, *columns)), self.times.tolist()


@dataclass(slots=True)
class ResultColumns:
    """One segment's join results, unboxed until someone reads them.

    The recorder stores this as-is when results are retained; the
    ``P`` :class:`JoinResult` objects (and their ``2P`` tuples) are
    only built if a consumer actually iterates the results.
    """

    keys: np.ndarray
    probe_tids: np.ndarray
    build_tids: np.ndarray
    probe_is_a: np.ndarray
    probe_payloads: list | None
    build_payloads: list | None

    def __len__(self) -> int:
        return len(self.keys)

    def materialise(self) -> list[JoinResult]:
        """Box the segment, preserving emission order and orientation."""
        keys = self.keys.tolist()
        ptids = self.probe_tids.tolist()
        btids = self.build_tids.tolist()
        pisa = self.probe_is_a.tolist()
        pp = self.probe_payloads
        bp = self.build_payloads
        out: list[JoinResult] = []
        for i, k in enumerate(keys):
            ppay = pp[i] if pp is not None else None
            bpay = bp[i] if bp is not None else None
            if pisa[i]:
                left = Tuple(key=k, tid=ptids[i], source=SOURCE_A, payload=ppay)
                right = Tuple(key=k, tid=btids[i], source=SOURCE_B, payload=bpay)
            else:
                left = Tuple(key=k, tid=btids[i], source=SOURCE_A, payload=bpay)
                right = Tuple(key=k, tid=ptids[i], source=SOURCE_B, payload=ppay)
            out.append(JoinResult(left=left, right=right))
        return out


#: Segments shorter than this walk the clock in the scalar loop: below
#: it the busy-period walk's fixed numpy calls cost more than the loop
#: saves (measured crossover about 150 rows on idle arrivals).
_VECTOR_WALK_MIN_ROWS = 512

#: Fix-up rounds the busy-period walk runs before it hands the rest of
#: a segment to the scalar loop.  Each round settles one more row of
#: every busy period, so a long backlog would make the rounds quadratic.
_WALK_ROUNDS = 4


def _scalar_walk(
    now: float,
    ats: list[float],
    cands: list[int],
    mcounts: list[int],
    tuple_cost: float,
    compare_cost: float,
    result_cost: float,
    skip_first: bool,
) -> tuple[list[float], float]:
    """The sequential scalar clock recurrence over one segment.

    Per row: advance to the arrival instant, charge the per-tuple
    cost, charge the probe comparisons, then charge and timestamp each
    emitted result.  ``skip_first`` marks a segment whose first row's
    arrival + tuple cost were already charged at the flush boundary.
    """
    res_times: list[float] = []
    res_append = res_times.append
    for at, c, m in zip(ats, cands, mcounts):
        if skip_first:
            skip_first = False
        else:
            if at > now:
                now = at
            now += tuple_cost
        if c:
            now += c * compare_cost
        for _ in range(m):
            now += result_cost
            res_append(now)
    return res_times, now


def _charge_rows(
    x: np.ndarray,
    charge: np.ndarray,
    mcounts: np.ndarray,
    offs: np.ndarray,
    res: np.ndarray,
    result_cost: float,
) -> np.ndarray:
    """Finish rows whose tuple cost ``x`` holds: add the probe charge,
    then each result charge one ``+ result_cost`` per level, writing
    result ``k`` of a row to ``res[offs + k]``.  Returns the row ends
    (``x``, updated in place)."""
    x += charge
    rows = np.flatnonzero(mcounts)
    if len(rows):
        xr = x[rows]
        pos = offs[rows]
        left = mcounts[rows]
        while True:
            xr += result_cost
            res[pos] = xr
            left -= 1
            done = left == 0
            if done.any():
                x[rows[done]] = xr[done]
                keep = ~done
                if not keep.any():
                    break
                rows, xr, pos, left = rows[keep], xr[keep], pos[keep], left[keep]
            pos += 1
    return x


def _busy_period_walk(
    now: float,
    ats: np.ndarray,
    cands: np.ndarray,
    mcounts: np.ndarray,
    tuple_cost: float,
    compare_cost: float,
    result_cost: float,
    skip_first: bool,
) -> tuple[np.ndarray, float, int]:
    """The scalar recurrence of :func:`_scalar_walk`, on arrays.

    Every charge is the scalar loop's own float addition in the same
    order; the one step that is not additive is ``now = max(now, at)``.
    So every row is first taken as fresh (started at its arrival),
    which gives lower bounds of the row ends.  Then each round
    recomputes, from its predecessor's end, every row that arrived
    before that end, across all busy periods at once; ends only grow,
    and the walk stops at the unique fixed point, the scalar sequence.
    A round settles one more row of every busy period, so after
    ``_WALK_ROUNDS`` rounds (or once a first-pass busy run is longer
    than that) the walk stops early.

    Returns ``(result_times, end, settled)``: rows ``[0, settled)`` are
    exact, ``result_times`` holds their results and ``end`` is the clock
    after row ``settled - 1``.
    """
    n = len(ats)
    charge = cands * compare_cost  # 0.0 where c == 0: adds nothing
    offs = np.cumsum(mcounts)
    res = np.empty(int(offs[-1]))
    offs -= mcounts
    start = ats.copy()
    if now > start[0]:
        start[0] = now
    x = start + tuple_cost
    if skip_first:
        x[0] = now
    ends = _charge_rows(x, charge, mcounts, offs, res, result_cost)
    # Rows that arrived before their predecessor's (lower-bound) end.
    busy = np.flatnonzero(ends[:-1] > start[1:]) + 1
    settled = n
    if len(busy) > _WALK_ROUNDS:
        # A run of more than _WALK_ROUNDS busy rows cannot settle in
        # time: the walk stops where it starts.
        long_run = np.flatnonzero(busy[_WALK_ROUNDS:] == busy[:-_WALK_ROUNDS] + _WALK_ROUNDS)
        if len(long_run):
            settled = int(busy[long_run[0]])
            busy = busy[: long_run[0]]
    for _ in range(_WALK_ROUNDS):
        if not len(busy):
            break
        prev = ends[busy - 1]
        start[busy] = prev
        ends[busy] = _charge_rows(
            prev + tuple_cost, charge[busy], mcounts[busy], offs[busy], res, result_cost
        )
        nxt = busy + 1
        if nxt[-1] == settled:
            nxt = nxt[:-1]
        busy = nxt[ends[nxt - 1] > start[nxt]]
    if len(busy):
        settled = int(busy[0])
    if settled == n:
        return res, float(ends[-1]), n
    return res[: offs[settled]], float(ends[settled - 1]), settled


def _clock_walk(
    now: float,
    ats: np.ndarray,
    cands: np.ndarray,
    mcounts: np.ndarray,
    tuple_cost: float,
    compare_cost: float,
    result_cost: float,
    skip_first: bool,
) -> tuple[list[float], float]:
    """The clock over one segment: result instants and the end time.

    Long segments take :func:`_busy_period_walk`, which hands any rows
    it leaves unsettled to :func:`_scalar_walk`; short ones, and those
    that open on a backlog longer than the round limit (every row up
    to ``_WALK_ROUNDS`` arrived before ``now``), take the scalar loop.
    Both add the same floats in the same order as the per-tuple path,
    so the result is bit-identical whichever runs.
    """
    res: list[float] = []
    settled = 0
    if len(ats) >= _VECTOR_WALK_MIN_ROWS and ats[_WALK_ROUNDS] > now:
        block, now, settled = _busy_period_walk(
            now, ats, cands, mcounts, tuple_cost, compare_cost, result_cost, skip_first
        )
        res = block.tolist()
        del block
        if settled == len(ats):
            return res, now
        skip_first = False
    tail, now = _scalar_walk(
        now,
        ats[settled:].tolist(),
        cands[settled:].tolist(),
        mcounts[settled:].tolist(),
        tuple_cost,
        compare_cost,
        result_cost,
        skip_first,
    )
    if not settled:
        return tail, now
    res += tail
    return res, now


def _segment_results(
    plan: "BatchProbeResult",
    keys: np.ndarray,
    tids: np.ndarray,
    isa: np.ndarray,
    pays: list | None,
) -> ResultColumns:
    """Gather one segment's match pairs into lazy result columns."""
    pr = plan.probe_rows
    build_tids = plan.build_tids
    if pr is None or build_tids is None:
        raise SimulationError("a matched segment was probed without pairs")
    probe_pays = None
    if pays is not None:
        probe_pays = [pays[r] for r in pr.tolist()]
    return ResultColumns(
        keys=keys[pr],
        probe_tids=tids[pr],
        build_tids=build_tids,
        probe_is_a=isa[pr],
        probe_payloads=probe_pays,
        build_payloads=plan.build_payloads,
    )


def run_columnar_batch(
    op: "StreamingJoinOperator",
    batch: ColumnBatch,
    *,
    table: "DualHashTable",
    memory: "MemoryPool",
    flush: Callable[[], None],
    phase: str,
) -> None:
    """Drive one hashing-phase delivery batch through the columnar path.

    The core of ``HashMergeJoin.on_column_batch``: the per-tuple
    probe/insert/flush loop of :meth:`~repro.joins.base.
    SymmetricHashStage.on_tuple`, with the operator's flush policy
    (``flush``) and recorded ``phase``.

    Equivalence to the per-tuple protocol: the batch is processed in
    segments that fit the free memory, :func:`_clock_walk` replays the
    exact per-row charge sequence, flush boundaries charge
    the boundary row before flushing (then skip its charge when the
    segment resumes), and the clock/pool are mirrored in locals and
    written back before any shared-state observer runs — pinned by
    the equivalence suite.
    """
    n = len(batch.keys)
    if n == 0:
        return
    runtime = op.runtime
    clock = runtime.clock
    costs = runtime.costs
    disk = runtime.disk
    recorder = runtime.recorder
    tuple_cost = costs.cpu_tuple_cost
    # Same expressions as charge_probe/emit: probe_time(n) is
    # n * cpu_compare_cost and result_time(1) is 1 * cpu_result_cost,
    # so the inlined arithmetic is bit-identical.
    compare_cost = costs.cpu_compare_cost
    result_cost = costs.result_time(1)
    need_pairs = recorder.needs_results
    summary = table.summary
    keys = batch.keys
    tids = batch.tids
    isa = batch.is_a
    pays = batch.payloads
    buckets = table.hash_batch(keys)
    times = batch.times
    peak = op.peak_imbalance
    now = clock.now
    used, capacity = memory.fill_level()
    # I/O only moves during flushes: mirrored like the clock.
    io = disk.io_count
    lo = 0
    pending = False
    while lo < n:
        if used >= capacity:
            if not pending:
                # The per-tuple loop charges arrival + tuple cost
                # before it notices memory is full; replay that for the
                # boundary row, once, however many flush rounds follow.
                at = float(times[lo])
                if at > now:
                    now = at
                now += tuple_cost
                pending = True
            clock.resync(now)
            memory.set_used(used)
            epoch = table.split_epoch
            while not memory.has_room(1):
                flush()
            now = clock.now
            used, capacity = memory.fill_level()
            io = disk.io_count
            if table.split_epoch != epoch:
                # A flush-triggered hot-group sub-split remapped part
                # of the bucket space; the pre-computed indices for the
                # remaining rows are stale.  Re-hash the tail.
                buckets[lo:] = table.hash_batch(keys[lo:])
            continue
        # The next `capacity - used` rows cannot trigger a flush: the
        # per-row check fires on the pool state *before* that row's
        # insert, and the segment adds exactly hi - lo tuples.
        hi = min(n, lo + (capacity - used))
        seg_isa = isa[lo:hi]
        pays_seg = None if pays is None else pays[lo:hi]
        d0 = summary.total_a - summary.total_b
        plan = table.probe_insert_batch(
            keys[lo:hi],
            tids[lo:hi],
            seg_isa,
            pays_seg,
            buckets[lo:hi],
            need_pairs=need_pairs,
        )
        res_times, now = _clock_walk(
            now,
            times[lo:hi],
            plan.candidates,
            plan.match_counts,
            tuple_cost,
            compare_cost,
            result_cost,
            pending,
        )
        pending = False
        if plan.total_matches:
            op._emit_guard()
            results = None
            if need_pairs:
                results = _segment_results(
                    plan, keys[lo:hi], tids[lo:hi], seg_isa, pays_seg
                )
            recorder.append_batch_columns(res_times, io, phase, results)
        used += hi - lo
        # Peak |A - B| imbalance after each insert: the running
        # difference is the pre-segment value plus a +/-1 cumsum.
        running = d0 + np.cumsum(np.where(seg_isa, 1, -1))
        seg_peak = int(np.abs(running).max())
        if seg_peak > peak:
            peak = seg_peak
        lo = hi
    clock.resync(now)
    memory.set_used(used)
    op.peak_imbalance = peak
