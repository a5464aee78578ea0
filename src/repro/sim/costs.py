"""Cost model translating operator work into virtual time.

The paper's time curves (Figures 10a, 11a, 12a, 13, 14a) are shaped by
three quantities: how many tuples an operator touches, how many key
comparisons it performs, and how many disk pages it moves.  The cost
model assigns each a virtual duration; the defaults approximate the
paper's 2004-era testbed where one page I/O costs several thousand
tuple operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CostModel:
    """Virtual-time charges for the primitive operations of a join.

    Attributes:
        page_size: Tuples per disk page.  All disk I/O is charged at
            page granularity, mirroring the paper's I/O counts.
        io_cost: Seconds charged per page read *or* write.
        cpu_tuple_cost: Seconds charged to receive one tuple (hash it
            and store it in a bucket).
        cpu_compare_cost: Seconds charged per key comparison (probing a
            bucket, sorting, or merging).
        cpu_result_cost: Seconds charged per emitted join result.
    """

    page_size: int = 50
    io_cost: float = 10e-3
    cpu_tuple_cost: float = 5e-6
    cpu_compare_cost: float = 1e-6
    cpu_result_cost: float = 2e-6

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise ConfigurationError(f"page_size must be >= 1, got {self.page_size}")
        for name in ("io_cost", "cpu_tuple_cost", "cpu_compare_cost", "cpu_result_cost"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be non-negative and finite, got {value!r}"
                )

    def pages_for(self, n_tuples: int) -> int:
        """Number of disk pages needed to hold ``n_tuples`` tuples."""
        if n_tuples <= 0:
            return 0
        return -(-n_tuples // self.page_size)

    def io_time(self, n_pages: int) -> float:
        """Virtual seconds to read or write ``n_pages`` pages."""
        return n_pages * self.io_cost

    def sort_time(self, n_tuples: int) -> float:
        """Virtual seconds to sort ``n_tuples`` tuples in memory.

        Charged as ``n * log2(n)`` comparisons, the textbook cost the
        paper's in-memory bucket sorts (hashing phase Step 1b) incur.
        """
        if n_tuples < 2:
            return 0.0
        return n_tuples * math.log2(n_tuples) * self.cpu_compare_cost

    def probe_time(self, n_candidates: int) -> float:
        """Virtual seconds to test a tuple against ``n_candidates``."""
        return n_candidates * self.cpu_compare_cost

    def result_time(self, n_results: int) -> float:
        """Virtual seconds to emit ``n_results`` join results."""
        return n_results * self.cpu_result_cost
