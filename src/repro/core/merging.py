"""The merging phase (Section 3.2, Figures 4-6).

Disk layout: per logical bucket group, each source owns a partition of
sorted blocks; the block flushed from A and the block flushed from B by
the same eviction share one *block number* (they were fully joined in
memory before flushing — the precondition of Theorem 2's Case 3).

A merge pass picks the first ``f`` (the fan-in) block numbers of a
group and merges all their A-blocks and all their B-blocks
simultaneously, emitting join results *during* the merge (Figure 5,
Step 3a) for every matching pair whose block numbers differ (Step 3b's
duplicate avoidance, illustrated by Figure 6), and writing each side's
merged output as a new block under a fresh shared number — so a later
pass never re-joins pairs this pass (or memory) already produced.

A pass runs as an interruptible generator over a vectorized k-way
merge: the engine can suspend it between any two units of work the
moment a blocked source delivers again, which is how HMJ "transfers
control back and forth between the hashing and merging phases".  The
per-tuple reference pass the columnar one is checked against lives in
:mod:`repro.testing.scalar_merge`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.core.columnar import ResultColumns
from repro.errors import ConfigurationError, SimulationError
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import DiskBlock, SimulatedDisk
from repro.storage.runs import SortedRun, vectorized_run_merge
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    RelationColumns,
    Tuple,
    tuples_to_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.recorder import MetricsRecorder

@dataclass(slots=True)
class _GroupState:
    """Disk-side state of one logical bucket group."""

    partition_a: str
    partition_b: str
    # block number -> (A block or None, B block or None)
    blocks: dict[int, tuple[DiskBlock | None, DiskBlock | None]] = field(
        default_factory=dict
    )
    next_id: int = 0
    # Incremental tallies of entries with a non-None A / B side,
    # maintained at register and pass-reservation time so the
    # scheduler's has-work polls stay O(1) instead of rebuilding two
    # ID sets per idle tick.
    count_a: int = 0
    count_b: int = 0


class MergeScheduler:
    """Owns the disk-resident blocks and runs interruptible merge passes.

    Shared by HMJ (``n_groups = h/p`` bucket groups) and PMJ (a single
    group): both algorithms' merging phases are the same refinement of
    sort-merge join, differing only in how many independent bucket
    groups exist (the first difference called out at the end of
    Section 3.2).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        clock: VirtualClock,
        costs: CostModel,
        partition_prefix: str,
        fan_in: int,
        n_groups: int,
        journal=None,
        recorder: "MetricsRecorder | None" = None,
        emit_phase: str = "merging",
        emit_guard: Callable[[], None] | None = None,
    ) -> None:
        if not isinstance(fan_in, int) or fan_in < 2:
            raise ConfigurationError(
                f"fan_in must be an integer >= 2, got {fan_in!r}"
            )
        if n_groups < 1:
            raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
        if recorder is None:
            raise ConfigurationError(
                "MergeScheduler needs a recorder for batch emission"
            )
        self._disk = disk
        self._clock = clock
        self._costs = costs
        self._fan_in = fan_in
        self._groups = [
            _GroupState(
                partition_a=f"{partition_prefix}/A/group{g}",
                partition_b=f"{partition_prefix}/B/group{g}",
            )
            for g in range(n_groups)
        ]
        self._active: _ColumnarMergePass | None = None
        self._cursor = 0
        self._input_ended = False
        self._journal = journal
        self._journal_actor = partition_prefix
        self._recorder: MetricsRecorder = recorder
        self._emit_phase = emit_phase
        self._emit_guard = emit_guard if emit_guard is not None else _no_guard
        self._tuples_flushed = 0

    @property
    def n_groups(self) -> int:
        """Number of independent bucket groups on disk."""
        return len(self._groups)

    @property
    def fan_in(self) -> int:
        """Blocks merged per pass (the paper's ``f``)."""
        return self._fan_in

    @property
    def tuples_flushed(self) -> int:
        """Total tuples ever flushed to this scheduler (both sides).

        Merge-pass outputs do not count: this measures how much of the
        *input* spilled.
        """
        return self._tuples_flushed

    def mark_input_ended(self) -> None:
        """Declare that no further flushes will arrive.

        From this point a pass that consumes *all* of a group's
        remaining blocks is final: its merged output would never be
        read again, so writing it is skipped (a standard last-pass
        optimisation of external merging — see DESIGN.md).  Before end
        of input this is unsafe, because a later flush could add a new
        block that still needs joining against the merged data.
        """
        self._input_ended = True

    # -- flush side ------------------------------------------------------

    def register_flush(
        self,
        group: int,
        sorted_a: list[Tuple],
        sorted_b: list[Tuple],
    ) -> int:
        """Tuple-list :meth:`register_flush_columns`: same checks and charges."""
        return self.register_flush_columns(
            group,
            tuples_to_columns(sorted_a, SOURCE_A),
            tuples_to_columns(sorted_b, SOURCE_B),
        )

    def register_flush_columns(
        self,
        group: int,
        sorted_a: RelationColumns | None,
        sorted_b: RelationColumns | None,
    ) -> int:
        """Write one synchronously flushed, pre-sorted block pair.

        Either side may be ``None`` or empty (its bucket group held no
        tuples), but not both.  Returns the shared block number.
        """
        gs = self._group(group)
        n_a = 0 if sorted_a is None else len(sorted_a.keys)
        n_b = 0 if sorted_b is None else len(sorted_b.keys)
        if not n_a and not n_b:
            raise SimulationError(f"flush of group {group} contained no tuples")
        if self._input_ended:
            raise SimulationError(
                "register_flush after mark_input_ended would break the "
                "final-pass optimisation; flush before marking input ended"
            )
        block_id = gs.next_id
        gs.next_id += 1
        block_a = (
            self._disk.write_block_columns(
                gs.partition_a, sorted_a, block_id, sorted_by_key=True
            )
            if n_a
            else None
        )
        block_b = (
            self._disk.write_block_columns(
                gs.partition_b, sorted_b, block_id, sorted_by_key=True
            )
            if n_b
            else None
        )
        gs.blocks[block_id] = (block_a, block_b)
        if block_a is not None:
            gs.count_a += 1
        if block_b is not None:
            gs.count_b += 1
        self._tuples_flushed += n_a + n_b
        return block_id

    # -- inspection -------------------------------------------------------

    def block_numbers(self, group: int) -> list[int]:
        """Current block numbers of a group (excluding any in-flight pass)."""
        return sorted(self._group(group).blocks.keys())

    def disk_tuples(self, group: int) -> int:
        """Tuples currently on disk for a group (excluding in-flight)."""
        gs = self._group(group)
        total = 0
        for block_a, block_b in gs.blocks.values():
            if block_a is not None:
                total += len(block_a)
            if block_b is not None:
                total += len(block_b)
        return total

    def group_has_result_work(self, group: int) -> bool:
        """Whether merging this group could still emit new results.

        True iff some A-block and some B-block carry *different* block
        numbers — same-numbered pairs were already joined in memory.
        Answered from the incremental side tallies: every registered
        entry has at least one non-None side, so "some A, some B, and
        at least two distinct block numbers" is exactly
        ``count_a > 0 and count_b > 0 and len(blocks) >= 2``.
        """
        gs = self._group(group)
        return gs.count_a > 0 and gs.count_b > 0 and len(gs.blocks) >= 2

    def has_result_work(self) -> bool:
        """Whether any group (or a suspended pass) can still emit results."""
        if self._active is not None:
            return True
        return any(self.group_has_result_work(g) for g in range(len(self._groups)))

    # -- merge side --------------------------------------------------------

    def work(self, budget: WorkBudget) -> None:
        """Run merge passes until the budget expires or no work remains.

        A suspended pass is resumed first; passes across groups are
        scheduled round-robin so early results come from every bucket,
        not just the first.
        """
        while not budget.expired():
            if self._active is None:
                group = self._next_group()
                if group is None:
                    return
                self._active = self._start_pass(group)
            if self._active.advance(budget):
                self._active = None

    def _start_pass(self, group: int) -> "_ColumnarMergePass":
        """Begin one merge pass over ``group``.

        Results are appended straight to the recorder under the
        scheduler's emit phase; the pass advances until its budget
        expires and reports True from ``advance`` once it is done.
        """
        return _ColumnarMergePass(self, group)

    def _next_group(self) -> int | None:
        n = len(self._groups)
        for offset in range(n):
            g = (self._cursor + offset) % n
            if self.group_has_result_work(g):
                self._cursor = (g + 1) % n
                return g
        return None

    def _begin_pass(
        self, group: int
    ) -> tuple[
        _GroupState,
        dict[int, tuple[DiskBlock | None, DiskBlock | None]],
        int,
        bool,
    ]:
        """Reserve a pass's inputs and assign its output block number.

        Pops the first ``f`` block numbers from the group's index (updating the side tallies), decides
        whether this is a final pass, and journals the pass.
        """
        gs = self._group(group)
        ids = sorted(gs.blocks.keys())[: self._fan_in]
        if len(ids) < 2:
            raise SimulationError(
                f"merge pass on group {group} needs >= 2 block numbers, got {ids}"
            )
        # Final pass: all remaining blocks fit in one pass and no new
        # flush can arrive — the merged output would never be read, so
        # skip writing it entirely.
        final_pass = self._input_ended and len(ids) == len(gs.blocks)
        selected = {i: gs.blocks.pop(i) for i in ids}
        for block_a, block_b in selected.values():
            if block_a is not None:
                gs.count_a -= 1
            if block_b is not None:
                gs.count_b -= 1
        out_id = gs.next_id
        gs.next_id += 1
        if self._journal is not None:
            self._journal.record(
                self._journal_actor,
                "merge-pass",
                group=group,
                blocks=ids,
                out=out_id,
                final=final_pass,
            )
        return gs, selected, out_id, final_pass

    def _drop_inputs(
        self,
        gs: _GroupState,
        selected: dict[int, tuple[DiskBlock | None, DiskBlock | None]],
    ) -> None:
        """Remove a completed pass's consumed input blocks (no charge)."""
        for block_a, block_b in selected.values():
            if block_a is not None:
                self._disk.drop_block(gs.partition_a, block_a)
            if block_b is not None:
                self._disk.drop_block(gs.partition_b, block_b)

    def _register_output(
        self,
        gs: _GroupState,
        out_id: int,
        merged_a: DiskBlock | None,
        merged_b: DiskBlock | None,
    ) -> None:
        """File a pass's merged output under its fresh block number."""
        if merged_a is None and merged_b is None:
            return
        gs.blocks[out_id] = (merged_a, merged_b)
        if merged_a is not None:
            gs.count_a += 1
        if merged_b is not None:
            gs.count_b += 1

    def _group(self, group: int) -> _GroupState:
        if not 0 <= group < len(self._groups):
            raise ConfigurationError(
                f"group {group} out of range [0, {len(self._groups)})"
            )
        return self._groups[group]


def _no_guard() -> None:
    """Default emit guard: no operator context, nothing to check."""


class _ColumnarMergePass:
    """An in-flight merge pass: vectorized data plane, mirrored clock.

    Both sides' runs are merged up front into contiguous origin-tagged
    columns (:func:`~repro.storage.runs.vectorized_run_merge`); the
    pass then walks per-key segments found by bisection, in the scalar
    reference's order: a span of either side's keys below the other
    side's head (one loop, whichever side it is), an equal-key group
    (the A gather, the B gather, then the cross product with the
    origin≠origin duplicate-avoidance mask, appending results through
    the recorder's batch column path), and finally one drain loop over
    whatever is left of both sides.  Both merged outputs are charged
    and registered by one step at pass end.

    **Determinism.**  The per-tuple reference pass
    (:class:`~repro.testing.scalar_merge.ScalarMergeScheduler`) charges
    the clock once per unit of work (compare / page write / page read
    / result), and float addition is non-associative — so the charges
    here replay the exact per-unit sequence in a sequential scalar
    recurrence on a mirrored local ``now`` (the discipline of the
    columnar driver's :func:`~repro.core.columnar._scalar_walk`), with page
    I/Os counted locally and folded back in bulk.  The budget boundary
    is re-checked between every two units against the hoisted deadline
    and stop predicate, and every check that fires suspends through one
    local ``pause`` helper, which publishes the mirrored state, yields,
    and hands the re-read state back — so the pass suspends at exactly
    the unit the reference generator would, and triples stay
    byte-identical under arbitrary suspension.  While a stop predicate
    is armed, emissions flush immediately (the predicate may read the
    recorder's live count); otherwise they buffer until the next
    suspension point or pass end.
    """

    __slots__ = ("_gen", "_deadline", "_stop")

    def __init__(self, scheduler: MergeScheduler, group: int) -> None:
        self._deadline = float("inf")
        self._stop: Callable[[], bool] | None = None
        self._gen = self._run(scheduler, group)

    def advance(self, budget: WorkBudget) -> bool:
        """Advance until the budget expires; True when the pass is done."""
        self._deadline = (
            budget.deadline if budget.deadline is not None else float("inf")
        )
        self._stop = budget.stop_when
        try:
            next(self._gen)
        except StopIteration:
            return True
        return False

    def _run(self, sched: MergeScheduler, group: int) -> Iterator[None]:
        gs, selected, out_id, final = sched._begin_pass(group)
        disk = sched._disk
        clock = sched._clock
        costs = sched._costs
        recorder = sched._recorder
        guard = sched._emit_guard
        phase = sched._emit_phase
        page = costs.page_size
        io1 = costs.io_time(1)
        cmp_c = costs.cpu_compare_cost
        res_c = costs.result_time(1)

        side_a, side_b = (
            vectorized_run_merge(
                [
                    SortedRun(block=pair[s], origin=i)
                    for i, pair in selected.items()
                    if pair[s] is not None
                ],
                disk,
            )
            for s in (0, 1)
        )
        n_a = len(side_a)
        n_b = len(side_b)
        # Hot-loop views: plain lists index faster than ndarrays and
        # .tolist() yields native ints, so all comparisons below are
        # exact integer comparisons on unboxed Python objects.
        keys_a = side_a.keys.tolist()
        keys_b = side_b.keys.tolist()
        orig_a = side_a.origins.tolist()
        orig_b = side_b.origins.tolist()
        rflag_a = side_a.read_flags.tolist()
        rflag_b = side_b.read_flags.tolist()

        # Emission buffers: per-result times and I/O snapshots, plus
        # (only when results must be built) row indices into the two
        # merged sides.
        t_buf: list[float] = []
        io_buf: list[int] = []
        ai_buf: list[int] = []
        bi_buf: list[int] = []
        t_append = t_buf.append
        io_append = io_buf.append
        ai_append = ai_buf.append
        bi_append = bi_buf.append
        need_rows = recorder.needs_results

        def flush() -> None:
            if not t_buf:
                return
            guard()
            results = None
            if need_rows:
                ai = np.asarray(ai_buf, dtype=np.intp)
                bi = np.asarray(bi_buf, dtype=np.intp)
                pays_a = side_a.payloads
                pays_b = side_b.payloads
                results = ResultColumns(
                    keys=side_a.keys[ai],
                    probe_tids=side_a.tids[ai],
                    build_tids=side_b.tids[bi],
                    probe_is_a=np.ones(len(ai), dtype=bool),
                    probe_payloads=(
                        [pays_a[i] for i in ai_buf]
                        if pays_a is not None
                        else None
                    ),
                    build_payloads=(
                        [pays_b[j] for j in bi_buf]
                        if pays_b is not None
                        else None
                    ),
                )
                ai_buf.clear()
                bi_buf.clear()
            recorder.append_batch_columns(t_buf, io_buf, phase, results)
            t_buf.clear()
            io_buf.clear()

        def pause(now: float, reads: int, writes: int):
            """Publish the mirrored state, suspend, and return it re-read.

            The caller resets its page counters, which were just folded
            back into the disk's totals.
            """
            flush()
            clock.resync(now)
            disk.absorb_io_pages(reads, writes)
            yield
            return (
                clock.now,
                disk.io_count,
                self._deadline,
                self._stop,
                recorder.needs_results,
            )

        # Mirrored shared state: local clock and page counters,
        # written back at every suspension point and at pass end.
        now = clock.now
        io = disk.io_count
        writes = 0
        deadline = self._deadline
        stop = self._stop
        # Initial page-0 fills — the heap path charges one page read
        # per run when each stream's first element is pulled, before
        # the first unit of work.
        reads = side_a.n_init_reads + side_b.n_init_reads
        for _ in range(reads):
            now += io1
        # The first unit is fused with the initial fills (the scalar
        # pass performs both inside one `next` call), so its boundary
        # check is skipped.
        first = True

        ia = 0
        ib = 0
        while ia < n_a and ib < n_b:
            key_a = keys_a[ia]
            key_b = keys_b[ib]
            # A span of one side's keys below the other side's head:
            # pick the side, then walk it in the one loop below.
            if key_a < key_b:
                lo, flags = ia, rflag_a
                ia = hi = bisect_left(keys_a, key_b, ia, n_a)
            elif key_b < key_a:
                lo, flags = ib, rflag_b
                ib = hi = bisect_left(keys_b, key_a, ib, n_b)
            else:
                # Equal keys: consume both spans (the gathers), then
                # cross them with the origin≠origin mask.  The loop-top
                # compare rides with the first gathered A element.
                a_end = bisect_right(keys_a, key_a, ia, n_a)
                b_end = bisect_right(keys_b, key_a, ib, n_b)
                for m in range(ia, a_end):
                    if first:
                        first = False
                    elif now >= deadline or (stop is not None and stop()):
                        now, io, deadline, stop, need_rows = yield from pause(
                            now, reads, writes
                        )
                        reads = writes = 0
                    if m == ia:
                        now += cmp_c
                    if not final and (m + 1) % page == 0:
                        now += io1
                        writes += 1
                    if rflag_a[m]:
                        now += io1
                        reads += 1
                for m in range(ib, b_end):
                    if now >= deadline or (stop is not None and stop()):
                        now, io, deadline, stop, need_rows = yield from pause(
                            now, reads, writes
                        )
                        reads = writes = 0
                    if not final and (m + 1) % page == 0:
                        now += io1
                        writes += 1
                    if rflag_b[m]:
                        now += io1
                        reads += 1
                b_range = range(ib, b_end)
                for i in range(ia, a_end):
                    oi = orig_a[i]
                    for j in b_range:
                        if now >= deadline or (stop is not None and stop()):
                            now, io, deadline, stop, need_rows = yield from pause(
                                now, reads, writes
                            )
                            reads = writes = 0
                        now += cmp_c
                        if oi != orig_b[j]:
                            now += res_c
                            t_append(now)
                            io_append(io + reads + writes)
                            if need_rows:
                                ai_append(i)
                                bi_append(j)
                            if stop is not None:
                                # A live predicate may read the
                                # recorder's count: publish each
                                # result before the next boundary.
                                flush()
                ia = a_end
                ib = b_end
                continue
            for m in range(lo, hi):
                if first:
                    first = False
                elif now >= deadline or (stop is not None and stop()):
                    now, io, deadline, stop, need_rows = yield from pause(
                        now, reads, writes
                    )
                    reads = writes = 0
                now += cmp_c
                if not final and (m + 1) % page == 0:
                    now += io1
                    writes += 1
                if flags[m]:
                    now += io1
                    reads += 1
        # Drain whichever side remains (no more matches possible).
        for flags, lo, hi in ((rflag_a, ia, n_a), (rflag_b, ib, n_b)):
            for m in range(lo, hi):
                if first:
                    first = False
                elif now >= deadline or (stop is not None and stop()):
                    now, io, deadline, stop, need_rows = yield from pause(
                        now, reads, writes
                    )
                    reads = writes = 0
                if not final and (m + 1) % page == 0:
                    now += io1
                    writes += 1
                if flags[m]:
                    now += io1
                    reads += 1
        # Finalisation is one more unit (the scalar generator's
        # trailing code runs inside a final `next` the driver guards
        # with its own budget check).
        if now >= deadline or (stop is not None and stop()):
            now, io, deadline, stop, need_rows = yield from pause(
                now, reads, writes
            )
            reads = writes = 0
        flush()
        clock.resync(now)
        disk.absorb_io_pages(reads, writes)
        sched._drop_inputs(gs, selected)
        # The streaming writers' close(): charge each side's final
        # partial page (A then B, as the scalar pass closes them), then
        # register the merged columns — which are exactly the per-side
        # merge results already in hand.  A final pass writes nothing.
        merged: list[DiskBlock | None] = []
        for side, partition in ((side_a, gs.partition_a), (side_b, gs.partition_b)):
            n = len(side)
            if final or not n:
                merged.append(None)
                continue
            if n % page:
                disk.charge_write_pages(n % page)
            columns = RelationColumns(side.keys, side.tids, side.payloads, side.source)
            merged.append(
                disk.adopt_block_columns(partition, columns, out_id, sorted_by_key=True)
            )
        sched._register_output(gs, out_id, *merged)
