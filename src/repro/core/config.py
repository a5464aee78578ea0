"""Configuration for the Hash-Merge Join operator.

Collects every tunable Section 3 and Section 4 introduce: the memory
budget ``M``, the number of in-memory hash buckets ``h``, the flush
fraction ``p`` (Section 3.3; the evaluation settles on 5%), the merge
fan-in ``f``, and the flushing policy (Adaptive by default, with the
Section 6.1.2 auto thresholds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.core.flushing import AdaptiveFlushingPolicy, FlushingPolicy


@dataclass(slots=True)
class HMJConfig:
    """All Hash-Merge Join tunables.

    Attributes:
        memory_capacity: Memory budget in tuples (the paper's ``M``;
            Section 6 uses 10% of the input).
        n_buckets: In-memory hash buckets per source (``h``).  ``None``
            (the default) resolves to ``max(200, M / 10)`` so the
            average bucket stays a few tuples deep at any scale —
            with a fixed ``h``, probe cost would grow linearly with
            memory and dominate large runs.
        flush_fraction: Fraction ``p`` of the buckets combined into one
            flushed disk block (Section 3.3; 5% is the paper's sweet
            spot, Figure 9).
        fan_in: Blocks merged per merging-phase pass (``f``), an integer
            of at least 2.
        policy: Flushing policy instance; prepared at bind time with
            the resolved memory capacity and group count.
        final_flush_all: Paper-faithful behaviour flushes the *whole*
            memory at end of input before the final merge.  Setting
            False skips groups with no disk-resident counterpart (their
            results were all produced in memory already) — an I/O
            optimisation kept as an ablation knob.
        hot_split_factor: Sub-buckets per base bucket when a hot group
            is sub-split in place (the PanJoin-style skew adaptation).
            0 (the default) disables hot splitting entirely — required
            for the pinned determinism baselines.
        hot_split_threshold: A group is split when its decayed arrival
            heat exceeds this multiple of the mean group heat at a
            flush decision.  Needs heat tracking, i.e. a policy with
            ``requires_heat`` or an explicit ``enable_heat`` call.
        hot_split_min_tuples: Minimum resident pair total before a hot
            group is worth splitting (re-bucketing a near-empty group
            buys nothing).
    """

    memory_capacity: int
    n_buckets: int | None = None
    flush_fraction: float = 0.05
    fan_in: int = 8
    policy: FlushingPolicy = field(default_factory=AdaptiveFlushingPolicy)
    final_flush_all: bool = True
    hot_split_factor: int = 0
    hot_split_threshold: float = 4.0
    hot_split_min_tuples: int = 64

    def __post_init__(self) -> None:
        if self.memory_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2 (one tuple per source), "
                f"got {self.memory_capacity}"
            )
        if self.n_buckets is None:
            self.n_buckets = max(200, self.memory_capacity // 10)
        if not isinstance(self.n_buckets, int) or self.n_buckets < 1:
            raise ConfigurationError(
                f"n_buckets must be an integer >= 1, got {self.n_buckets!r}"
            )
        if not 0 < self.flush_fraction <= 1:
            raise ConfigurationError(
                f"flush_fraction must be in (0, 1], got {self.flush_fraction!r}"
            )
        if not isinstance(self.fan_in, int) or self.fan_in < 2:
            raise ConfigurationError(
                f"fan_in must be an integer >= 2, got {self.fan_in!r}"
            )
        if self.hot_split_factor < 0 or self.hot_split_factor == 1:
            raise ConfigurationError(
                f"hot_split_factor must be 0 (off) or >= 2, "
                f"got {self.hot_split_factor}"
            )
        if not self.hot_split_threshold >= 1.0:  # NaN fails too
            raise ConfigurationError(
                f"hot_split_threshold must be >= 1, got {self.hot_split_threshold!r}"
            )
        if self.hot_split_min_tuples < 0:
            raise ConfigurationError(
                f"hot_split_min_tuples must be >= 0, "
                f"got {self.hot_split_min_tuples}"
            )

    @property
    def group_size(self) -> int:
        """Consecutive buckets combined per flush (``p * h``, >= 1)."""
        return max(1, round(self.n_buckets * self.flush_fraction))

    @property
    def n_groups(self) -> int:
        """Disk-side bucket groups (``h / p`` of Section 3.3)."""
        return -(-self.n_buckets // self.group_size)

    @property
    def skew_adaptive(self) -> bool:
        """Whether any skew-adaptive feature needs heat tracking."""
        return self.policy.requires_heat or self.hot_split_factor > 0
