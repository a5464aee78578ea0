"""Sorted runs and their vectorized k-way merge.

The merging phases of HMJ and PMJ consume *sorted runs* (the blocks
flushed by the hashing/sorting phases) and produce bigger sorted runs,
joining as they go.  This module supplies the two primitives they
share:

* :class:`SortedRun` — a sorted block together with its origin block
  number (the duplicate-avoidance tag of Figure 5, Step 3b);
* :func:`vectorized_run_merge` — a k-way merge of several runs into
  contiguous origin-tagged columns, carrying the page-read schedule a
  page-by-page heap merge would charge.

The page-streamed heap merge and paged run writer that define that
schedule live in :mod:`repro.testing.scalar_merge`, as the reference
the merging phase is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.disk import DiskBlock, SimulatedDisk


@dataclass(slots=True)
class SortedRun:
    """A sorted disk block viewed as a merge input.

    Attributes:
        block: The underlying disk block (must be key-sorted).
        origin: Block number carried by every tuple of this run during
            a merge pass; pairs of tuples with equal origins are never
            joined (they were already joined in memory or in an earlier
            pass).
    """

    block: DiskBlock
    origin: int

    def __post_init__(self) -> None:
        if not self.block.sorted_by_key:
            raise StorageError(
                f"block {self.block.block_id} is not sorted; "
                "merge inputs must be key-sorted runs"
            )

    def __len__(self) -> int:
        return len(self.block)

    @classmethod
    def from_block(cls, block: DiskBlock) -> "SortedRun":
        """Wrap a block using its own block number as the origin tag."""
        return cls(block=block, origin=block.block_id)


@dataclass(slots=True)
class MergedRunColumns:
    """One side's k-way merge, pre-computed as origin-tagged columns.

    The same elements in the same key order as the page-streamed
    reference heap merge (:mod:`repro.testing.scalar_merge`), plus the
    *I/O charge schedule* the heap path would have produced, so a
    consumer can replay page-read charges element by element without
    touching the heap machinery.

    Attributes:
        keys: int64 join keys in merged order.
        tids: int64 per-source tuple ids in merged order.
        origins: int64 origin block-number tag per element (the
            duplicate-avoidance tag of Figure 5, Step 3b).
        read_flags: bool per element — True where consuming this
            element pulls its run's *next* page in (one page-read
            charge), exactly when the heap path's ``push_next`` would
            refill after yielding it.
        payloads: payload reference list in merged order, or ``None``
            when every payload is ``None``.
        source: Shared source label of the side.
        n_init_reads: Page-0 reads charged when the merged stream
            starts (one per run — the heap path's initial fills).
    """

    keys: np.ndarray
    tids: np.ndarray
    origins: np.ndarray
    read_flags: np.ndarray
    payloads: list | None
    source: str
    n_init_reads: int

    def __len__(self) -> int:
        return len(self.keys)


def vectorized_run_merge(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> MergedRunColumns:
    """Merge sorted runs into contiguous columns in one vectorized pass.

    ``np.lexsort`` over the concatenated key/tid columns replaces the
    per-pop heap: within one side every tuple's ``(key, tid)`` pair is
    unique (tids are per-source unique and a tuple lives in exactly one
    run), so the lexicographic order is a strict total order identical
    to the heap's ``(key, source, tid)`` order — the run-index
    tiebreak never fires.  No I/O is charged here: the returned
    ``read_flags`` schedule lets the consumer charge page reads
    incrementally, element by element, exactly as the paged heap merge
    would have.
    """
    page_size = disk.costs.page_size
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return MergedRunColumns(
            keys=empty,
            tids=empty,
            origins=empty,
            read_flags=np.empty(0, dtype=bool),
            payloads=None,
            source="",
            n_init_reads=0,
        )
    keys_parts: list[np.ndarray] = []
    tids_parts: list[np.ndarray] = []
    orig_parts: list[np.ndarray] = []
    flag_parts: list[np.ndarray] = []
    pay_parts: list[tuple[list | None, int]] = []
    any_payload = False
    source = ""
    for run in runs:
        cols = disk.block_columns(run.block)
        n = len(cols.keys)
        keys_parts.append(cols.keys)
        tids_parts.append(cols.tids)
        orig_parts.append(np.full(n, run.origin, dtype=np.int64))
        # Consuming the last element of a non-final page refills the
        # run's next page (the heap's push_next-after-yield).
        ahead = np.arange(1, n + 1)
        flag_parts.append((ahead % page_size == 0) & (ahead < n))
        pay_parts.append((cols.payloads, n))
        any_payload = any_payload or cols.payloads is not None
        source = source or cols.source
    keys = np.concatenate(keys_parts)
    tids = np.concatenate(tids_parts)
    order = np.lexsort((tids, keys))
    payloads: list | None = None
    if any_payload:
        flat: list = []
        for pays, n in pay_parts:
            flat.extend(pays if pays is not None else [None] * n)
        payloads = [flat[i] for i in order.tolist()]
    return MergedRunColumns(
        keys=keys[order],
        tids=tids[order],
        origins=np.concatenate(orig_parts)[order],
        read_flags=np.concatenate(flag_parts)[order],
        payloads=payloads,
        source=source,
        n_init_reads=len(runs),
    )
