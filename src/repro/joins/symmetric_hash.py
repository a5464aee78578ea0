"""The symmetric hash join of Wilschut & Apers [23, 24].

The ancestor of every hash-based non-blocking join (Section 2): two
in-memory hash tables, each arriving tuple probes the opposite table
and is then inserted into its own.  It "requires that the two relations
fit in memory" — exceeding the optional budget raises, documenting the
limitation HMJ, XJoin, and DPHJ all exist to lift.
"""

from __future__ import annotations

import sys

from repro.errors import MemoryBudgetError
from repro.core.hashing import DualHashTable
from repro.joins.base import SymmetricHashStage
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import Tuple


class SymmetricHashJoin(SymmetricHashStage):
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
    PHASE = PHASE_HASHING = "hashing"

    def __init__(self, n_buckets: int = 64, memory_capacity: int | None = None) -> None:
        super().__init__()
        self._n_buckets = n_buckets
        self._capacity = memory_capacity

    def _setup(self) -> None:
        self._table = DualHashTable(self._n_buckets, n_groups=1)
        # Unbounded: a pool no workload can fill.
        capacity = sys.maxsize if self._capacity is None else self._capacity
        self._memory = MemoryPool(capacity)

    def _flush(self) -> None:
        """SHJ cannot flush: a full budget is an error."""
        raise MemoryBudgetError(
            "symmetric hash join exceeded its memory budget; it has no "
            "flushing mechanism — use HashMergeJoin or XJoin instead"
        )

    def export_hash_state(self) -> list[Tuple] | None:
        """Drain both in-memory tables for a morph target.

        SHJ's whole state is memory-resident (its defining limitation),
        so a handover is always consistent: every match among the
        exported tuples was emitted on arrival.
        """
        if self._table is None:
            return None
        return self._drain_table()

    def has_background_work(self) -> bool:
        return False

    def on_blocked(self, budget: WorkBudget) -> None:
        """No disk-resident state: blocked time produces nothing."""

    def memory_usage(self) -> tuple[int, int] | None:
        """``None`` when unbounded: there is no grant to check."""
        if self._capacity is None:
            return None
        return super().memory_usage()

    def finish(self, budget: WorkBudget) -> None:
        """Everything was already produced in memory."""
        self.mark_finished()
