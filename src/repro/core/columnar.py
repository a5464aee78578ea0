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

**Determinism.**  The virtual-clock recurrence is the one part that
must NOT be vectorized: float addition is non-associative, so any
reassociation (per-row cumsums, per-segment partial sums) would drift
from the per-tuple path in the last bits and break the byte-identical
``(count, clock, io)`` triples the equivalence suite pins.  The driver
therefore walks the clock in :func:`_clock_walk` — a sequential scalar
loop executing the exact per-tuple charge sequence — while everything
around it (hashing, bucket grouping, match finding, inserts, summary
deltas) runs on arrays.

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


def _clock_walk(
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

    This loop is intentionally NOT vectorized: the identical
    left-to-right float addition order is what keeps the batch paths'
    determinism triples byte-identical to the per-tuple path.
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
    segments that fit the free memory, the scalar :func:`_clock_walk`
    replays the exact per-row charge sequence, flush boundaries charge
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
    times_l = batch.times.tolist()
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
                at = times_l[lo]
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
            times_l[lo:hi],
            plan.candidates.tolist(),
            plan.match_counts.tolist(),
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
