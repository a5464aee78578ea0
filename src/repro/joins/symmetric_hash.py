"""The symmetric hash join of Wilschut & Apers [23, 24].

The ancestor of every hash-based non-blocking join (Section 2): two
in-memory hash tables, each arriving tuple probes the opposite table
and is then inserted into its own.  It "requires that the two relations
fit in memory" — exceeding the optional budget raises, documenting the
limitation HMJ, XJoin, and DPHJ all exist to lift.
"""

from __future__ import annotations

from repro.errors import MemoryBudgetError
from repro.core.hashing import DualHashTable
from repro.joins.base import StreamingJoinOperator
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple


class SymmetricHashJoin(StreamingJoinOperator):
    """Pure in-memory pipelined hash join.

    Args:
        n_buckets: Hash buckets per source.
        memory_capacity: Optional budget in tuples; ``None`` (the
            default) models the paper's assumption that both relations
            fit in memory.  When set, overflowing raises
            :class:`~repro.errors.MemoryBudgetError` instead of
            silently growing.
    """

    name = "SHJ"
    PHASE = "hashing"

    def __init__(self, n_buckets: int = 64, memory_capacity: int | None = None) -> None:
        super().__init__()
        self._n_buckets = n_buckets
        self._capacity = memory_capacity
        self._table: DualHashTable | None = None
        self._memory: MemoryPool | None = None

    def _setup(self) -> None:
        self._table = DualHashTable(self._n_buckets, n_groups=1)
        if self._capacity is not None:
            self._memory = MemoryPool(self._capacity)

    @property
    def table(self) -> DualHashTable:
        """The in-memory dual hash table."""
        return self._bound(self._table)

    def on_tuple(self, t: Tuple) -> None:
        self.charge_tuple()
        if self._memory is not None and not self._memory.has_room(1):
            raise MemoryBudgetError(
                "symmetric hash join exceeded its memory budget; it has no "
                "flushing mechanism — use HashMergeJoin or XJoin instead"
            )
        matches, candidates = self.table.probe(t)
        self.charge_probe(candidates)
        for match in matches:
            self.emit(t, match, self.PHASE)
        self.table.insert(t)
        if self._memory is not None:
            self._memory.allocate(1)

    def export_hash_state(self) -> list[Tuple] | None:
        """Drain both in-memory tables for a morph target.

        SHJ's whole state is memory-resident (its defining limitation),
        so a handover is always consistent: every match among the
        exported tuples was emitted on arrival.  Extraction empties the
        single bucket group of each source and releases the budget.
        """
        table = self._table
        if table is None:
            return None
        exported = table.extract_group(SOURCE_A, 0)
        exported += table.extract_group(SOURCE_B, 0)
        if self._memory is not None and exported:
            self._memory.release(len(exported))
        return exported

    def has_background_work(self) -> bool:
        return False

    def on_blocked(self, budget: WorkBudget) -> None:
        """No disk-resident state: blocked time produces nothing."""

    def memory_usage(self) -> tuple[int, int] | None:
        if self._memory is None:
            return None
        return (self._memory.used, self._memory.capacity)

    def finish(self, budget: WorkBudget) -> None:
        """Everything was already produced in memory."""
        self.mark_finished()
