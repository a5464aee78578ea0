"""The in-memory summary table of Section 4.

"To speed up the process of selecting victim buckets, we maintain an
in-memory summary table that keeps track of the number of tuples in
each bucket pair for both sources, along with the total number of
tuples."

The table works at the granularity the flushing policy sees: the
``g = h / p`` *bucket groups* of Section 3.3, each pairing the same
hash range from source A and source B.

Every per-tuple query is O(1): the source totals (and with them
``imbalance()``) are maintained incrementally.  Victim choice scans the
non-empty groups, but only at a flush decision, never per tuple.

**Heat tracking** (opt-in, for the skew-adaptive flushing layer): when
:meth:`~BucketSummaryTable.enable_heat` has been called, every arrival
also bumps a per-group *heat* counter.  Heat is decayed multiplicatively
by the flushing policy at each flush decision (``decay_heat``), never
per arrival — between two flush points heat accumulation is a plain
order-free sum, so the per-tuple and columnar delivery paths observe
identical heat at every decision point.  Flushing a group does
*not* reset its heat: heat measures arrival recency, not residency, so
a hot group that was just evicted is still recognised as hot while it
refills.  With heat disabled (the default) the only cost is one
``is not None`` test per arrival and nothing observable changes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, MemoryBudgetError
from repro.storage.tuples import SOURCE_A, SOURCE_B


class BucketSummaryTable:
    """Per-group tuple counts for both sources, with running totals."""

    __slots__ = (
        "_n_groups",
        "_counts_a",
        "_counts_b",
        "_total_a",
        "_total_b",
        "_heat",
    )

    def __init__(self, n_groups: int) -> None:
        if n_groups < 1:
            raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
        self._n_groups = n_groups
        self._counts_a = [0] * n_groups
        self._counts_b = [0] * n_groups
        self._total_a = 0
        self._total_b = 0
        self._heat: list[float] | None = None

    @property
    def n_groups(self) -> int:
        """Number of bucket-group pairs the policy chooses among."""
        return self._n_groups

    @property
    def total(self) -> int:
        """All in-memory tuples across both sources."""
        return self._total_a + self._total_b

    @property
    def total_a(self) -> int:
        """In-memory tuples from source A."""
        return self._total_a

    @property
    def total_b(self) -> int:
        """In-memory tuples from source B."""
        return self._total_b

    def imbalance(self) -> int:
        """``abs(|A| - |B|)`` in tuples — Section 4.1's balance measure."""
        return abs(self._total_a - self._total_b)

    def add(self, source: str, group: int, n: int = 1) -> None:
        """Record ``n`` tuples entering ``group`` from ``source``."""
        counts = self._counts_for(source)
        self._check_group(group)
        if n < 0:
            raise ConfigurationError(f"add requires n >= 0, got {n}")
        counts[group] += n
        if source == SOURCE_A:
            self._total_a += n
        else:
            self._total_b += n
        if self._heat is not None:
            self._heat[group] += n

    def add_one(self, is_a: bool, group: int) -> None:
        """Unchecked fast path: one tuple enters ``group``.

        The hashing hot path calls this once per arriving tuple; the
        group index comes from the hash table's own lookup so the
        validation ``add`` performs would be pure overhead here.
        """
        if is_a:
            self._counts_a[group] += 1
            self._total_a += 1
        else:
            self._counts_b[group] += 1
            self._total_b += 1
        if self._heat is not None:
            self._heat[group] += 1.0

    def add_delta_arrays(self, deltas_a, deltas_b) -> None:
        """Bulk :meth:`add_one`: per-group delta arrays from one batch.

        ``deltas_a``/``deltas_b`` are length-``n_groups`` count arrays
        (``np.bincount`` output).  Counts, totals and heat update in
        O(nonzero groups) and end exactly where the per-tuple calls
        would, so every policy query sees identical values on either
        path.
        """
        counts_a = self._counts_a
        counts_b = self._counts_b
        heat = self._heat
        for g in np.flatnonzero(deltas_a).tolist():
            d = int(deltas_a[g])
            counts_a[g] += d
            self._total_a += d
            if heat is not None:
                heat[g] += d
        for g in np.flatnonzero(deltas_b).tolist():
            d = int(deltas_b[g])
            counts_b[g] += d
            self._total_b += d
            if heat is not None:
                heat[g] += d

    def remove(self, source: str, group: int, n: int) -> None:
        """Record ``n`` tuples leaving ``group`` (flushed to disk)."""
        counts = self._counts_for(source)
        self._check_group(group)
        if n < 0:
            raise ConfigurationError(f"remove requires n >= 0, got {n}")
        if counts[group] < n:
            raise MemoryBudgetError(
                f"group {group} of source {source} holds {counts[group]} tuples; "
                f"cannot remove {n}"
            )
        counts[group] -= n
        if source == SOURCE_A:
            self._total_a -= n
        else:
            self._total_b -= n

    # -- decayed per-group arrival heat ---------------------------------

    @property
    def heat_enabled(self) -> bool:
        """Whether per-group arrival heat is being tracked."""
        return self._heat is not None

    def enable_heat(self) -> None:
        """Start tracking per-group arrival heat (idempotent).

        Counters start at zero; arrivals recorded before enabling are
        not back-filled.  Purely additive: nothing else in the table
        reads heat, so enabling cannot change counts or victim choices
        of heat-oblivious policies.
        """
        if self._heat is None:
            self._heat = [0.0] * self._n_groups

    def heat(self, group: int) -> float:
        """Decayed arrival heat of one group (0.0 when not tracked)."""
        self._check_group(group)
        if self._heat is None:
            return 0.0
        return self._heat[group]

    def heats(self) -> list[float]:
        """A copy of every group's heat (empty list when not tracked)."""
        if self._heat is None:
            return []
        return list(self._heat)

    def decay_heat(self, factor: float) -> None:
        """Multiply every group's heat by ``factor`` (a flush-time age).

        Called by skew-aware policies at each flush decision, so heat
        is a recency-weighted arrival count whose value at any decision
        point is independent of intra-batch arrival order.
        """
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(
                f"heat decay factor must be in [0, 1], got {factor!r}"
            )
        heat = self._heat
        if heat is None:
            return
        for g in range(self._n_groups):
            heat[g] *= factor

    def size(self, source: str, group: int) -> int:
        """Tuples of ``source`` currently in ``group``."""
        counts = self._counts_for(source)
        self._check_group(group)
        return counts[group]

    def pair_sizes(self, group: int) -> tuple[int, int]:
        """``(|A_k|, |B_k|)`` for group ``k`` — one summary-table row."""
        self._check_group(group)
        return self._counts_a[group], self._counts_b[group]

    def pair_total(self, group: int) -> int:
        """``|A_k| + |B_k|`` for group ``k``."""
        self._check_group(group)
        return self._counts_a[group] + self._counts_b[group]

    def nonempty_groups(self) -> list[int]:
        """Groups holding at least one tuple (flushable victims)."""
        return [
            g
            for g in range(self._n_groups)
            if self._counts_a[g] + self._counts_b[g] > 0
        ]

    def rows(self) -> list[tuple[int, int, int]]:
        """``(group, |A_k|, |B_k|)`` rows — the Figure 7 layout."""
        return [
            (g, self._counts_a[g], self._counts_b[g]) for g in range(self._n_groups)
        ]

    def _counts_for(self, source: str) -> list[int]:
        if source == SOURCE_A:
            return self._counts_a
        if source == SOURCE_B:
            return self._counts_b
        raise ConfigurationError(f"unknown source {source!r}")

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )

    def __repr__(self) -> str:
        return (
            f"BucketSummaryTable(groups={self._n_groups}, "
            f"|A|={self._total_a}, |B|={self._total_b})"
        )
