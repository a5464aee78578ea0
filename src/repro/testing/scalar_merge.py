"""The scalar merge pass: the reference oracle of the merging phase.

HMJ and PMJ merge their disk-resident runs with the vectorized pass of
:mod:`repro.core.merging`.  This module keeps the direct per-tuple
formulation of Section 3.2 solely as the reference that pass is
checked against: a page-streamed heap merge per side
(:func:`key_merge_iterator`), a join-while-merging generator that
yields after every unit of work (:func:`join_while_merging`), and a
paged writer for each side's merged output (:class:`PagedRunWriter`).
Both passes must produce identical results, per-result
``(time, io, phase)`` events and final ``(count, clock, io)`` triples,
under any suspension schedule.

* :class:`ScalarMergeScheduler` — a
  :class:`~repro.core.merging.MergeScheduler` whose passes run the
  per-tuple generator;
* :class:`ScalarMergeHashMergeJoin` and
  :class:`ScalarMergeProgressiveMergeJoin` — HMJ and PMJ whose
  still-empty scheduler is swapped for the scalar one at bind time,
  for whole-operator cross-checks (the conformance matrix's
  ``--merge-path`` axis).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Sequence

from repro.core.hmj import HashMergeJoin
from repro.core.merging import MergeScheduler
from repro.errors import SimulationError, StorageError
from repro.joins.pmj import ProgressiveMergeJoin
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskBlock, SimulatedDisk
from repro.storage.runs import SortedRun
from repro.storage.tuples import Tuple, make_result, tuples_to_columns

EmitFn = Callable[[Tuple, Tuple], None]


def key_merge_iterator(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> Iterator[tuple[Tuple, int]]:
    """Merge sorted runs into one key-ordered stream of (tuple, origin).

    Pages are pulled from the disk lazily, so pausing this iterator
    pauses I/O charging too — the property that lets the engine suspend
    a merge the moment a blocked source wakes up.
    """
    # Each heap entry: (sort_key, run_index, tuple). run_index breaks
    # ties deterministically and keeps the heap from comparing Tuples.
    heap: list[tuple[tuple[int, str, int], int, Tuple]] = []
    page_streams = [disk.page_reader(run.block) for run in runs]
    buffers: list[list[Tuple]] = [[] for _ in runs]
    # Per-page sort keys, computed once at refill rather than once per
    # heap push (every tuple is pushed exactly once, but the method
    # call and tuple construction dominate the push itself).
    sort_keys: list[list[tuple[int, str, int]]] = [[] for _ in runs]
    positions = [0] * len(runs)

    def refill(i: int) -> bool:
        """Load the next page of run ``i``; False when exhausted."""
        page = next(page_streams[i], None)
        if page is None:
            return False
        buffers[i] = page
        sort_keys[i] = [t.sort_key() for t in page]
        positions[i] = 0
        return True

    def push_next(i: int) -> None:
        pos = positions[i]
        if pos >= len(buffers[i]):
            if not refill(i):
                return
            pos = 0
        positions[i] = pos + 1
        heapq.heappush(heap, (sort_keys[i][pos], i, buffers[i][pos]))

    for i in range(len(runs)):
        push_next(i)

    while heap:
        _, i, t = heapq.heappop(heap)
        yield (t, runs[i].origin)
        push_next(i)


def merge_sorted_runs(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> list[tuple[Tuple, int]]:
    """Eagerly materialise :func:`key_merge_iterator` (test convenience)."""
    return list(key_merge_iterator(runs, disk))


class PagedRunWriter:
    """Streams a sorted run to disk, charging I/O one page at a time.

    The writer buffers tuples; whenever a full page accumulates it is
    charged immediately (so the I/O counter grows *during* a merge pass
    as in the paper's curves), and ``close`` charges the final partial
    page and registers the finished block under ``partition``.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        partition: str,
        block_id: int,
    ) -> None:
        self._disk = disk
        self._partition = partition
        self._block_id = block_id
        self._tuples: list[Tuple] = []
        self._uncharged = 0
        self._closed = False

    @property
    def count(self) -> int:
        """Tuples written so far."""
        return len(self._tuples)

    def append(self, t: Tuple) -> None:
        """Append one tuple, charging a page write on page boundaries."""
        if self._closed:
            raise StorageError("cannot append to a closed run writer")
        self._tuples.append(t)
        self._uncharged += 1
        if self._uncharged == self._disk.costs.page_size:
            self._disk.charge_write_pages(self._uncharged)
            self._uncharged = 0

    def close(self) -> DiskBlock | None:
        """Flush the final partial page and register the block.

        Returns the registered block, or ``None`` if nothing was ever
        written (a merge group whose inputs were all empty).
        """
        if self._closed:
            raise StorageError("run writer already closed")
        self._closed = True
        if self._uncharged:
            self._disk.charge_write_pages(self._uncharged)
            self._uncharged = 0
        if not self._tuples:
            return None
        return self._disk.adopt_block_columns(
            self._partition,
            tuples_to_columns(self._tuples),
            self._block_id,
            sorted_by_key=True,
            tuples=self._tuples,
        )


class _NullRunWriter:
    """Drop-in for :class:`PagedRunWriter` that discards final-pass output."""

    __slots__ = ()

    def append(self, t: Tuple) -> None:
        """Discard the tuple (final-pass output is never read again)."""

    def close(self) -> DiskBlock | None:
        """Nothing was materialised."""
        return None


def join_while_merging(
    stream_a: Iterator[tuple[Tuple, int]],
    stream_b: Iterator[tuple[Tuple, int]],
    writer_a: "PagedRunWriter | _NullRunWriter",
    writer_b: "PagedRunWriter | _NullRunWriter",
    emit: EmitFn,
    clock: VirtualClock,
    compare_cost: float,
) -> Iterator[None]:
    """Sort-merge join two origin-tagged streams while writing them out.

    Every consumed tuple is appended to its side's output run; every
    matching pair with *different* origins is emitted through ``emit``.
    Yields after each unit of work (one consumed tuple or one candidate
    pair) so the caller can suspend between any two units.
    """
    item_a = next(stream_a, None)
    item_b = next(stream_b, None)
    while item_a is not None and item_b is not None:
        key_a = item_a[0].key
        key_b = item_b[0].key
        clock.advance(compare_cost)
        if key_a < key_b:
            writer_a.append(item_a[0])
            item_a = next(stream_a, None)
            yield
        elif key_b < key_a:
            writer_b.append(item_b[0])
            item_b = next(stream_b, None)
            yield
        else:
            # Equal keys: gather both sides' key groups, cross them.
            group_a: list[tuple[Tuple, int]] = []
            while item_a is not None and item_a[0].key == key_a:
                group_a.append(item_a)
                writer_a.append(item_a[0])
                item_a = next(stream_a, None)
                yield
            group_b: list[tuple[Tuple, int]] = []
            while item_b is not None and item_b[0].key == key_a:
                group_b.append(item_b)
                writer_b.append(item_b[0])
                item_b = next(stream_b, None)
                yield
            for tuple_a, origin_a in group_a:
                for tuple_b, origin_b in group_b:
                    clock.advance(compare_cost)
                    if origin_a != origin_b:
                        emit(tuple_a, tuple_b)
                    yield
    # Drain whichever side remains (no more matches possible).
    while item_a is not None:
        writer_a.append(item_a[0])
        item_a = next(stream_a, None)
        yield
    while item_b is not None:
        writer_b.append(item_b[0])
        item_b = next(stream_b, None)
        yield


class ScalarMergePass:
    """An in-flight scalar pass: the per-tuple generator plus its driver.

    Advancing runs one unit of work per ``next``, re-checking the
    budget between units.
    """

    __slots__ = ("_gen",)

    def __init__(self, gen: Iterator[None]) -> None:
        self._gen = gen

    def advance(self, budget: WorkBudget) -> bool:
        """Advance until the budget expires; True when the pass is done."""
        gen = self._gen
        while not budget.expired():
            try:
                next(gen)
            except StopIteration:
                return True
        return False


class ScalarMergeScheduler(MergeScheduler):
    """A merge scheduler whose passes run the per-tuple reference.

    Flush registration, pass reservation, round-robin scheduling and
    output filing are inherited unchanged; only the pass itself
    differs.  Results go through the operator emit sequence (finished
    guard, one result charge, one recorder append) under the
    scheduler's emit phase.
    """

    def _start_pass(self, group: int) -> ScalarMergePass:
        return ScalarMergePass(self._merge_pass(group))

    def _emit(self, first: Tuple, second: Tuple) -> None:
        """Emit one merge result exactly as the operator's ``emit`` does."""
        self._emit_guard()
        self._clock.advance(self._costs.result_time(1))
        self._recorder.record(make_result(first, second), self._emit_phase)

    def _merge_pass(self, group: int) -> Iterator[None]:
        """One pass over a group: merge its first ``f`` block numbers.

        A generator yielding after every unit of work so the engine can
        suspend it mid-pass.  Input blocks are reserved (removed from
        the group's index) up front; the merged outputs are registered
        under a fresh shared block number at the end.
        """
        gs, selected, out_id, final_pass = self._begin_pass(group)

        runs_a = [
            SortedRun(block=blk, origin=i)
            for i, (blk, _) in selected.items()
            if blk is not None
        ]
        runs_b = [
            SortedRun(block=blk, origin=i)
            for i, (_, blk) in selected.items()
            if blk is not None
        ]
        if final_pass:
            writer_a: PagedRunWriter | _NullRunWriter = _NullRunWriter()
            writer_b: PagedRunWriter | _NullRunWriter = _NullRunWriter()
        else:
            writer_a = PagedRunWriter(self._disk, gs.partition_a, out_id)
            writer_b = PagedRunWriter(self._disk, gs.partition_b, out_id)
        stream_a = key_merge_iterator(runs_a, self._disk)
        stream_b = key_merge_iterator(runs_b, self._disk)

        yield from join_while_merging(
            stream_a,
            stream_b,
            writer_a,
            writer_b,
            self._emit,
            self._clock,
            self._costs.cpu_compare_cost,
        )

        self._drop_inputs(gs, selected)
        merged_a = writer_a.close()
        merged_b = writer_b.close()
        self._register_output(gs, out_id, merged_a, merged_b)


def use_scalar_merge(scheduler: MergeScheduler) -> ScalarMergeScheduler:
    """Switch a freshly built, still-empty scheduler to the scalar pass.

    The scheduler keeps its identity and configuration; only its class
    changes.  Switching once blocks exist is rejected, so one run
    never mixes the two passes.
    """
    if scheduler.tuples_flushed:
        raise SimulationError("only an empty merge scheduler can be switched")
    scheduler.__class__ = ScalarMergeScheduler
    return scheduler  # type: ignore[return-value]


class ScalarMergeHashMergeJoin(HashMergeJoin):
    """HMJ whose merging phase runs the scalar reference pass."""

    def _setup(self) -> None:
        super()._setup()
        use_scalar_merge(self.scheduler)


class ScalarMergeProgressiveMergeJoin(ProgressiveMergeJoin):
    """PMJ whose merging phase runs the scalar reference pass."""

    def _setup(self) -> None:
        super()._setup()
        use_scalar_merge(self.scheduler)
