"""The Progressive Merge Join of Dittrich et al. [7, 8].

Section 2's sort-based lineage: memory is split between the two
sources; when it fills, both partitions are sorted, joined against each
other (this *sorting phase* is where PMJ's first results appear — the
initial-delay effect of Figures 11 and 13), and flushed as a run pair
sharing a run id.  Disk-resident runs are then merged with fan-in ``f``
by the same refined sort-merge machinery HMJ uses — PMJ is exactly the
single-bucket-group special case (end of the paper's Section 3.2).

Like HMJ, this implementation merges opportunistically while both
sources are blocked (the behaviour Figure 14 shows as PMJ's step-like
curve).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.core.merging import MergeScheduler
from repro.joins.base import StreamingJoinOperator
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import SOURCE_A, Tuple


class ProgressiveMergeJoin(StreamingJoinOperator):
    """Non-blocking sort-based join (PMJ)."""

    name = "PMJ"
    supports_memory_resize = True
    PHASE_SORTING = "sorting"
    PHASE_MERGING = "merging"

    def __init__(self, memory_capacity: int, fan_in: int = 8) -> None:
        super().__init__()
        if memory_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2, got {memory_capacity}"
            )
        self._capacity = memory_capacity
        self._fan_in = fan_in
        self._memory: MemoryPool | None = None
        self._scheduler: MergeScheduler | None = None
        self._pending_a: list[Tuple] = []
        self._pending_b: list[Tuple] = []
        self.sort_flush_count = 0

    def _setup(self) -> None:
        self._memory = MemoryPool(self._capacity)
        self._scheduler = MergeScheduler(
            disk=self.disk,
            clock=self.clock,
            costs=self.costs,
            partition_prefix="pmj",
            fan_in=self._fan_in,
            n_groups=1,
            journal=self.runtime.journal,
            recorder=self.recorder,
            emit_phase=self.PHASE_MERGING,
            emit_guard=self._emit_guard,
        )

    @property
    def memory(self) -> MemoryPool:
        """The operator's memory budget."""
        return self._bound(self._memory)

    @property
    def scheduler(self) -> MergeScheduler:
        """The merging-phase scheduler (single bucket group)."""
        return self._bound(self._scheduler)

    # -- protocol ---------------------------------------------------------

    def on_tuple(self, t: Tuple) -> None:
        """Buffer the tuple; sort-join-flush when memory fills.

        Unlike the hash-based family, *no* result is produced on
        arrival — first results wait for the first memory fill.
        """
        self.charge_tuple()
        if not self.memory.has_room(1):
            self._sort_join_flush()
        if t.source == SOURCE_A:
            self._pending_a.append(t)
        else:
            self._pending_b.append(t)
        self.memory.allocate(1)

    def has_background_work(self) -> bool:
        return self.scheduler.has_result_work()

    def on_blocked(self, budget: WorkBudget) -> None:
        self.scheduler.work(budget)

    def memory_usage(self) -> tuple[int, int] | None:
        if self._memory is None:
            return None
        return (self._memory.used, self._memory.capacity)

    def spilled_unmerged(self) -> bool:
        """Sorted runs remain on disk until the merge scheduler drains."""
        return self._scheduler is not None and self._scheduler.has_result_work()

    def finish(self, budget: WorkBudget) -> None:
        """Final fill is sorted/joined/flushed, then merge everything."""
        if self._pending_a or self._pending_b:
            self._sort_join_flush()
        self.scheduler.mark_input_ended()
        self.scheduler.work(budget)
        self.mark_finished()

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant.

        Shrinking below the resident set forces an early sort/join/
        flush of the whole buffer (PMJ has no finer eviction unit).
        """
        if new_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2, got {new_capacity}"
            )
        if self.memory.used > new_capacity:
            self._sort_join_flush()
        self.memory.resize(new_capacity)

    # -- internals ----------------------------------------------------------

    def _sort_join_flush(self) -> None:
        """One sorting-phase step: sort both partitions, join, flush.

        The in-memory sort-merge join works on the boxed sorted lists;
        the flushed run pair is stored as key/tid columns.  One sort
        charge per side, then the run-pair write.
        """
        tuples_a, tuples_b = self._pending_a, self._pending_b
        self._pending_a, self._pending_b = [], []
        self.charge_sort(len(tuples_a))
        self.charge_sort(len(tuples_b))
        tuples_a.sort(key=Tuple.sort_key)
        tuples_b.sort(key=Tuple.sort_key)
        self._join_sorted_in_memory(tuples_a, tuples_b)
        self.scheduler.register_flush(0, tuples_a, tuples_b)
        self.memory.release(len(tuples_a) + len(tuples_b))
        self.sort_flush_count += 1
        self.log_event("sort-flush", a=len(tuples_a), b=len(tuples_b))

    def _join_sorted_in_memory(
        self, sorted_a: list[Tuple], sorted_b: list[Tuple]
    ) -> None:
        """Sort-merge join of the two freshly sorted memory partitions."""
        self.charge_probe(len(sorted_a) + len(sorted_b))
        i = j = 0
        while i < len(sorted_a) and j < len(sorted_b):
            key_a, key_b = sorted_a[i].key, sorted_b[j].key
            if key_a < key_b:
                i += 1
            elif key_b < key_a:
                j += 1
            else:
                i_end = i
                while i_end < len(sorted_a) and sorted_a[i_end].key == key_a:
                    i_end += 1
                j_end = j
                while j_end < len(sorted_b) and sorted_b[j_end].key == key_a:
                    j_end += 1
                for a in sorted_a[i:i_end]:
                    for b in sorted_b[j:j_end]:
                        self.emit(a, b, self.PHASE_SORTING)
                i, j = i_end, j_end
