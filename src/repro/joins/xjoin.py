"""XJoin — Urhan & Franklin's reactively scheduled pipelined join [20, 21].

The hash-based state of the art HMJ is measured against.  Three stages:

* **stage 1** (memory-to-memory): symmetric hashing; when memory fills,
  the *single largest bucket of either source* is flushed, unsorted, to
  that bucket's disk partition — the unsynchronised, unbalanced policy
  the paper's Section 6.3 blames for XJoin's weaker hashing phase;
* **stage 2** (reactive, while both sources are blocked): a disk
  partition is joined against the opposite source's in-memory bucket;
* **stage 3** (cleanup, at end of input): remaining memory is flushed
  and same-bucket disk partition pairs are joined.

Duplicate prevention is XJoin's constant-space timestamp scheme.  Each
tuple carries an arrival timestamp (ATS) and a departure-to-disk
timestamp (DTS), kept per source by tid.  A pair whose residency
intervals ``[ATS, DTS)`` overlapped was produced by stage 1.  Each
completed stage-2 pass records a *usage* ``probe_ts`` on its disk
partition: every block flushed by ``probe_ts`` was joined against the
memory image resident at ``probe_ts``.  A later candidate pair (disk
tuple ``d``, tuple ``m``) is skipped iff some usage covers it:
``DTS(d) <= probe_ts`` and ``ATS(m) <= probe_ts < DTS(m)``.

Stage 1 is the shared per-tuple step (:meth:`SymmetricHashStage.on_tuple`);
column batches are replayed through it.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import ConfigurationError
# Unused here: kept only so the ``repro.joins.xjoin:run_columnar_batch``
# trace point of ``python -m perf --trace`` still resolves.
from repro.core.columnar import run_columnar_batch  # noqa: F401
from repro.core.hashing import DualHashTable
from repro.joins.base import SymmetricHashStage
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple

_INF = math.inf


class XJoin(SymmetricHashStage):
    """The three-stage reactively scheduled hash join."""

    name = "XJoin"
    supports_memory_resize = True
    PHASE_STAGE1 = PHASE_HASHING = "stage1"
    PHASE_STAGE2 = "stage2"
    PHASE_STAGE3 = "stage3"

    def __init__(self, memory_capacity: int, n_buckets: int | None = None) -> None:
        super().__init__()
        if memory_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2, got {memory_capacity}"
            )
        if n_buckets is None:
            # Keep the average bucket a handful of tuples deep at any
            # scale; a fixed h makes probe CPU grow with memory.
            n_buckets = max(64, memory_capacity // 32)
        if n_buckets < 1:
            raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
        self._capacity = memory_capacity
        self._n_buckets = n_buckets
        # Timestamp bookkeeping, per source by tid: arrival (ATS) and
        # flush (DTS) instants.
        self._ats: dict[str, dict[int, float]] = {SOURCE_A: {}, SOURCE_B: {}}
        self._dts: dict[str, dict[int, float]] = {SOURCE_A: {}, SOURCE_B: {}}
        # Completed stage-2 pass timestamps per (source, bucket)
        # partition.
        self._usages: dict[tuple[str, int], list[float]] = {}
        # (source, bucket) -> (disk block count, opposite insert count)
        # at the time of the last stage-2 pass; unchanged => skip.
        self._stage2_seen: dict[tuple[str, int], tuple[int, int]] = {}
        self._insert_counts: dict[tuple[str, int], int] = {}
        self._stage2_active: Iterator[None] | None = None
        self.flush_count = 0

    def _setup(self) -> None:
        # One group per bucket: XJoin flushes at single-bucket
        # granularity, from one source at a time.
        self._table = DualHashTable(self._n_buckets, n_groups=self._n_buckets)
        self._memory = MemoryPool(self._capacity)

    # -- stage 1 ------------------------------------------------------------

    def _record_row(self, t: Tuple, bucket: int) -> None:
        """Stamp ``t``'s arrival (ATS) and count the insert into ``bucket``."""
        self._ats[t.source][t.tid] = self.clock.now
        key = (t.source, bucket)
        self._insert_counts[key] = self._insert_counts.get(key, 0) + 1

    def _flush(self) -> None:
        """Flush the single largest bucket of either source, unsorted."""
        self._flush_bucket(*self.table.largest_bucket())

    def _flush_bucket(self, source: str, bucket: int) -> None:
        """Spill one chosen bucket as a counted, journaled flush."""
        n = self._spill_bucket(source, bucket)
        if not n:
            raise ConfigurationError(
                f"memory is full but source {source}'s largest bucket is "
                "empty (corrupt accounting)"
            )
        self.flush_count += 1
        self.log_event("flush", source=source, bucket=bucket, n=n)

    def _spill_bucket(self, source: str, bucket: int) -> int:
        """Write one bucket, unsorted, to its disk partition.

        Stamps each spilled tuple's departure (DTS) at the instant the
        write completed and releases its memory.  Returns the number of
        tuples spilled (0 for an empty bucket, which touches no disk).
        """
        cols = self.table.extract_group_columns(source, bucket)
        n = len(cols)
        if not n:
            return 0
        partition = self._partition_name(source, bucket)
        block_id = len(self.disk.partition(partition).blocks)
        # Stored as extracted: the table only takes per-tuple inserts,
        # so these are fresh arrays, not views of its arena.
        self.disk.write_block_columns(partition, cols, block_id, sorted_by_key=False)
        self._dts[source].update(dict.fromkeys(cols.tids.tolist(), self.clock.now))
        self.memory.release(n)
        return n

    def export_hash_state(self) -> list[Tuple] | None:
        """Drain the in-memory tables for a morph target, if possible.

        Only consistent while *nothing* has been flushed and no
        reactive stage-2 pass is suspended: once tuples sit in disk
        partitions, their pending stage-2/3 matches live in XJoin's
        timestamp bookkeeping and cannot be handed to another operator
        without either losing or duplicating results.  Returns ``None``
        in that case and the morph is declined.
        """
        if self.flush_count or self._stage2_active is not None or self._table is None:
            return None
        return self._drain_table()

    # -- stage 2 ------------------------------------------------------------

    def has_background_work(self) -> bool:
        if self._stage2_active is not None:
            return True
        return self._pick_stage2() is not None

    def spilled_unmerged(self) -> bool:
        """A suspended stage-2 pass holds disk pairs mid-emission.

        Stage 3 sweeps every flushed partition during ``finish``, so
        after a completed run only an un-drained reactive pass could
        still hide disk-resident matches.
        """
        return self._stage2_active is not None

    def on_blocked(self, budget: WorkBudget) -> None:
        while not budget.expired():
            active = self._stage2_active
            if active is None:
                pick = self._pick_stage2()
                if pick is None:
                    return
                active = self._stage2_active = self._stage2_pass(*pick)
            if self._drain_active(active, budget):
                self._stage2_active = None

    @staticmethod
    def _drain_active(stage2: Iterator[None], budget: WorkBudget) -> bool:
        """Advance a stage-2 pass until the budget expires; True when done."""
        while not budget.expired():
            try:
                next(stage2)
            except StopIteration:
                return True
        return False

    def _pick_stage2(self) -> tuple[str, int] | None:
        """The disk partition expected to produce the most results.

        Scores each (source, bucket) disk partition by disk tuples
        times opposite in-memory bucket population, skipping partitions
        whose state is unchanged since their last pass (no new results
        are possible from an identical state).
        """
        best: tuple[str, int] | None = None
        best_score = 0
        for source in (SOURCE_A, SOURCE_B):
            other = SOURCE_B if source == SOURCE_A else SOURCE_A
            for bucket in range(self._n_buckets):
                partition = self.disk.partition(self._partition_name(source, bucket))
                disk_n = partition.total_tuples()
                mem_n = self.table.bucket_size(other, bucket)
                if disk_n == 0 or mem_n == 0:
                    continue
                version = (
                    len(partition.blocks),
                    self._insert_counts.get((other, bucket), 0),
                )
                if self._stage2_seen.get((source, bucket)) == version:
                    continue
                score = disk_n * mem_n
                if score > best_score:
                    best, best_score = (source, bucket), score
        return best

    def _stage2_pass(self, source: str, bucket: int) -> Iterator[None]:
        """Join one disk partition against the opposite memory bucket.

        ``probe_ts`` (the pass start) and the block/memory snapshots
        are taken together, so the pass joins exactly the blocks with
        ``DTS <= probe_ts`` against the tuples resident at
        ``probe_ts`` — the coverage its usage records when the pass
        completes.
        """
        probe_ts = self.clock.now
        other = SOURCE_B if source == SOURCE_A else SOURCE_A
        partition = self.disk.partition(self._partition_name(source, bucket))
        self._stage2_seen[(source, bucket)] = (
            len(partition.blocks),
            self._insert_counts.get((other, bucket), 0),
        )
        snapshot: dict[int, list[Tuple]] = {}
        for m in self.table.bucket_contents(other, bucket):
            snapshot.setdefault(m.key, []).append(m)
        for block in list(partition.blocks):
            for page in self.disk.page_reader(block):
                for d in page:
                    self.charge_probe(1)
                    for m in snapshot.get(d.key, ()):
                        self._emit_disk_pair(d, m, self.PHASE_STAGE2, bucket)
                    yield
        self.log_event("stage2-pass", source=source, bucket=bucket)
        # Only a *completed* pass guarantees full coverage; the usage is
        # therefore recorded here, at generator exhaustion.
        self._usages.setdefault((source, bucket), []).append(probe_ts)

    # -- stage 3 ------------------------------------------------------------

    def finish(self, budget: WorkBudget) -> None:
        """Cleanup: flush remaining memory, then join disk partitions.

        A stage-2 pass suspended by an unblocked source is completed
        first: its coverage record only exists once it finishes, and stage 3 relies on that record to avoid
        re-emitting the pass's output.
        """
        active = self._stage2_active
        if active is not None and self._drain_active(active, budget):
            self._stage2_active = None
        self._flush_all_memory()
        for bucket in range(self._n_buckets):
            if budget.expired():
                break
            self._stage3_bucket(bucket, budget)
        self.mark_finished()

    def _flush_all_memory(self) -> None:
        for source in (SOURCE_A, SOURCE_B):
            for bucket in range(self._n_buckets):
                self._spill_bucket(source, bucket)

    def _stage3_bucket(self, bucket: int, budget: WorkBudget) -> bool:
        """Join the A and B disk partitions of one bucket."""
        part_a = self.disk.partition(self._partition_name(SOURCE_A, bucket))
        part_b = self.disk.partition(self._partition_name(SOURCE_B, bucket))
        if part_a.total_tuples() == 0 or part_b.total_tuples() == 0:
            return False
        # Build side: the smaller partition is read fully into a hash
        # table; the larger side streams past it.
        build, probe = (part_a, part_b)
        if part_a.total_tuples() > part_b.total_tuples():
            build, probe = part_b, part_a
        lookup: dict[int, list[Tuple]] = {}
        for block in build.blocks:
            for t in self.disk.read_block(block):
                lookup.setdefault(t.key, []).append(t)
        for block in probe.blocks:
            for page in self.disk.page_reader(block):
                if budget.expired():
                    return True
                for d in page:
                    self.charge_probe(1)
                    for m in lookup.get(d.key, ()):
                        self._emit_disk_pair(d, m, self.PHASE_STAGE3, bucket)
        return True

    # -- shared helpers -------------------------------------------------------

    def _emit_disk_pair(
        self, first: Tuple, second: Tuple, phase: str, bucket: int
    ) -> None:
        """Emit a disk-derived pair unless stage 1 or stage 2 produced it."""
        if (
            self._overlapped_in_memory(first, second)
            or self._covered_by_usage(first, second, bucket)
            or self._covered_by_usage(second, first, bucket)
        ):
            return
        self.emit(first, second, phase)

    def _covered_by_usage(self, disk_side: Tuple, mem_side: Tuple, bucket: int) -> bool:
        """Whether a completed stage-2 pass already produced this pair.

        A pass over ``disk_side``'s partition at ``probe_ts`` covered
        the pair iff the disk tuple was already flushed
        (``DTS <= probe_ts``) and the other tuple was memory-resident
        at that instant (``ATS <= probe_ts < DTS``).
        """
        usages = self._usages.get((disk_side.source, bucket))
        if not usages:
            return False
        dts_disk = self._dts[disk_side.source].get(disk_side.tid, _INF)
        ats_mem = self._ats[mem_side.source][mem_side.tid]
        dts_mem = self._dts[mem_side.source].get(mem_side.tid, _INF)
        return any(
            dts_disk <= probe_ts and ats_mem <= probe_ts < dts_mem
            for probe_ts in usages
        )

    def _overlapped_in_memory(self, first: Tuple, second: Tuple) -> bool:
        """Whether the two tuples ever co-resided in memory (stage 1 case).

        Residency of a tuple is [ATS, DTS); the later arriver probed
        the earlier one iff the intervals overlap, which is exactly
        when stage 1 already emitted the pair.
        """
        ats_1 = self._ats[first.source][first.tid]
        ats_2 = self._ats[second.source][second.tid]
        dts_1 = self._dts[first.source].get(first.tid, _INF)
        dts_2 = self._dts[second.source].get(second.tid, _INF)
        return ats_1 < dts_2 and ats_2 < dts_1

    def _partition_name(self, source: str, bucket: int) -> str:
        return f"xjoin/{source}/bucket{bucket}"


class XJoinStaticMemory(XJoin):
    """XJoin with memory statically halved between the sources.

    The XJoin technical report describes memory as divided between the
    two inputs; this variant gives each source a fixed ``M/2`` and
    flushes the overflowing source's largest bucket.  Under skewed
    arrival rates the slow source's half sits underused while the fast
    source thrashes — the unbalanced-memory weakness the HMJ paper
    attributes to XJoin in its Figure 12/14 discussion.  The
    dynamically-shared :class:`XJoin` above is the stronger baseline;
    this one exists to test the paper's narrative directly (see the
    ``xjoin-memory`` ablation and EXPERIMENTS.md).
    """

    name = "XJoin-static"
    supports_memory_resize = False

    def _setup(self) -> None:
        super()._setup()
        half = max(1, self._capacity // 2)
        self._side_capacity = {SOURCE_A: half, SOURCE_B: self._capacity - half}

    @property
    def _side_used(self) -> dict[str, int]:
        """Resident tuples per source: the hash table's running totals."""
        summary = self.table.summary
        return {SOURCE_A: summary.total_a, SOURCE_B: summary.total_b}

    def _make_room(self, t: Tuple) -> None:
        """Flush the arriving source's largest bucket while its half is full."""
        source = t.source
        while self._side_used[source] >= self._side_capacity[source]:
            self._flush_bucket(*self.table.largest_bucket(source))

    def resize_memory(self, new_capacity: int) -> None:
        """Rejected: the per-source halves are fixed at construction."""
        raise ConfigurationError(
            "XJoinStaticMemory has fixed per-source halves; use XJoin for "
            "runtime memory adaptation"
        )
