"""Simulated page-granular disk with I/O accounting.

The evaluation's I/O figures (9b, 10b, 11b, 14b) count page reads and
writes.  :class:`SimulatedDisk` reproduces that bookkeeping: every
write or read of ``n`` tuples is charged ``ceil(n / page_size)`` page
I/Os against the shared virtual clock and the global counters.

Data lives in named :class:`DiskPartition` objects holding ordered
:class:`DiskBlock` entries — exactly the layout of Figure 4 in the
paper, where each hash bucket owns a list of same-numbered block pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.pages import pages_needed, split_into_pages
from repro.storage.tuples import (
    RelationColumns,
    Tuple,
    columns_to_tuples,
    tuples_to_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import VirtualClock
    from repro.sim.costs import CostModel


class DiskBlock:
    """One flushed block: a contiguous, optionally sorted tuple run.

    Like :class:`~repro.storage.tuples.Relation`, the block stores its
    :meth:`columns`; ``tuples`` is a boxed view for per-tuple readers,
    built on first read and cached (XJoin's stage 2 and stage 3 read
    the same blocks repeatedly).  A block built from a tuple list
    keeps that list as the view.

    Attributes:
        block_id: The paper's block number.  HMJ assigns the *same* id
            to the A-block and B-block flushed together, which is what
            makes the merging phase's duplicate avoidance (Figure 5,
            Step 3b) sound.
        sorted_by_key: Whether the contents are sorted by join key (HMJ
            and PMJ sort before flushing; XJoin does not).
    """

    __slots__ = ("block_id", "sorted_by_key", "_columns", "_tuples")

    def __init__(
        self,
        block_id: int,
        columns: RelationColumns,
        sorted_by_key: bool = False,
        tuples: list[Tuple] | None = None,
    ) -> None:
        self.block_id = block_id
        self.sorted_by_key = sorted_by_key
        self._columns = columns
        self._tuples = tuples

    @property
    def tuples(self) -> list[Tuple]:
        """The stored tuples in storage order (boxed on first use)."""
        if self._tuples is None:
            self._tuples = columns_to_tuples(self._columns)
        return self._tuples

    def columns(self) -> RelationColumns:
        """The stored columnar image."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:
        return (
            f"DiskBlock(block_id={self.block_id}, n={len(self)}, "
            f"sorted_by_key={self.sorted_by_key})"
        )

    def pages(self, page_size: int) -> int:
        """Pages this block occupies on disk."""
        return pages_needed(len(self), page_size)


@dataclass(slots=True)
class DiskPartition:
    """A named, append-only sequence of blocks (one per flush)."""

    name: str
    blocks: list[DiskBlock] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[DiskBlock]:
        return iter(self.blocks)

    def total_tuples(self) -> int:
        """Total tuples across all blocks in this partition."""
        return sum(len(b) for b in self.blocks)

    def block_ids(self) -> list[int]:
        """Block numbers present, in storage order."""
        return [b.block_id for b in self.blocks]


class SimulatedDisk:
    """Page-accounted block storage shared by all operators in a run.

    All mutating operations charge the virtual clock via the cost model
    and update the global read/write page counters that the metrics
    layer snapshots per produced result.
    """

    def __init__(self, clock: VirtualClock, costs: CostModel) -> None:
        self._clock = clock
        self._costs = costs
        self._partitions: dict[str, DiskPartition] = {}
        self._pages_written = 0
        self._pages_read = 0

    @property
    def costs(self) -> CostModel:
        """The cost model governing page size and I/O charges."""
        return self._costs

    @property
    def pages_written(self) -> int:
        """Total pages written since construction."""
        return self._pages_written

    @property
    def pages_read(self) -> int:
        """Total pages read since construction."""
        return self._pages_read

    @property
    def io_count(self) -> int:
        """Total page I/Os (reads + writes) — the paper's y-axis unit."""
        return self._pages_written + self._pages_read

    def partition(self, name: str) -> DiskPartition:
        """Get or create the partition called ``name``."""
        part = self._partitions.get(name)
        if part is None:
            part = DiskPartition(name=name)
            self._partitions[name] = part
        return part

    def partitions(self) -> list[DiskPartition]:
        """All partitions, in creation order."""
        return list(self._partitions.values())

    def partition_stats(self) -> list[dict]:
        """Occupancy summary per non-empty partition.

        Each row reports block count, tuples, pages occupied, and page
        utilisation (tuples / page capacity) — the quantity behind the
        Flush Smallest policy's wasted-page critique in Section 4.
        """
        stats = []
        for part in self._partitions.values():
            tuples = part.total_tuples()
            if tuples == 0:
                continue
            pages = sum(block.pages(self._costs.page_size) for block in part.blocks)
            stats.append(
                {
                    "partition": part.name,
                    "blocks": len(part.blocks),
                    "tuples": tuples,
                    "pages": pages,
                    "utilisation": tuples / (pages * self._costs.page_size),
                }
            )
        return stats

    def write_block(
        self,
        partition: str,
        tuples: Sequence[Tuple],
        block_id: int,
        sorted_by_key: bool = False,
    ) -> DiskBlock:
        """Tuple-list :meth:`write_block_columns`: same charges."""
        boxed = list(tuples)
        block = self._append(
            partition, tuples_to_columns(boxed), block_id, sorted_by_key, boxed
        )
        self._charge_write(len(block))
        return block

    def read_block(self, block: DiskBlock) -> list[Tuple]:
        """Read a whole block back, charging read I/O for all its pages."""
        tuples = self._stored_tuples(block)
        self._charge_read(len(tuples))
        return list(tuples)

    def page_reader(self, block: DiskBlock) -> Iterator[list[Tuple]]:
        """Stream a block page by page, charging one read per page.

        Used by the interruptible merge machinery so the clock (and the
        I/O counter) advance gradually while merging, matching the
        smooth in-merge segments of the paper's curves.
        """
        for page in split_into_pages(self._stored_tuples(block), self._costs.page_size):
            self._charge_read(len(page))
            yield list(page)

    def drop_block(self, partition: str, block: DiskBlock) -> None:
        """Remove a consumed block (after a merge pass replaced it)."""
        part = self._partitions.get(partition)
        if part is None or block not in part.blocks:
            raise StorageError(f"block {block.block_id} not found in {partition!r}")
        part.blocks.remove(block)

    def charge_write_pages(self, n_tuples: int) -> int:
        """Charge a write of ``n_tuples`` without storing (streamed output).

        The merge writers stream pages out as they fill; they account
        through this hook and materialise the final block separately
        via :meth:`adopt_block_columns`.
        """
        return self._charge_write(n_tuples)

    def block_columns(self, block: DiskBlock) -> RelationColumns:
        """A block's contents as column arrays, WITHOUT charging I/O.

        The columnar merge path charges page reads itself (mirroring
        the exact incremental schedule of :meth:`page_reader`), so this
        accessor is pure data plumbing.  File-backed disks override it
        to load from the backing file.
        """
        return block.columns()

    def write_block_columns(
        self,
        partition: str,
        columns: RelationColumns,
        block_id: int,
        sorted_by_key: bool = False,
    ) -> DiskBlock:
        """Append a block to ``partition``, charging write I/O.

        Empty flushes are storage bugs (a policy chose a victim with
        nothing in it) and raise :class:`~repro.errors.StorageError`.
        """
        block = self._append(partition, columns, block_id, sorted_by_key)
        self._charge_write(len(columns))
        return block

    def adopt_block_columns(
        self,
        partition: str,
        columns: RelationColumns,
        block_id: int,
        sorted_by_key: bool = True,
        tuples: list[Tuple] | None = None,
    ) -> DiskBlock:
        """Register an already-charged block (built by a streaming writer).

        ``tuples`` is the boxed view when the writer already holds one
        (the scalar merge oracle); it becomes the block's cached view.
        """
        return self._append(partition, columns, block_id, sorted_by_key, tuples)

    def absorb_io_pages(self, pages_read: int, pages_written: int) -> None:
        """Fold a fused loop's locally counted page I/Os into the totals.

        The columnar merge pass mirrors both the clock and the I/O
        counters in locals (one attribute store per page is measurable)
        and writes them back at suspension points and at pass end —
        the clock half goes through
        :meth:`~repro.sim.clock.VirtualClock.resync`; this is the
        counter half.  The clock charges were already accumulated by
        the caller, so only the counters move here.
        """
        self._pages_read += pages_read
        self._pages_written += pages_written

    def _append(
        self,
        partition: str,
        columns: RelationColumns,
        block_id: int,
        sorted_by_key: bool,
        tuples: list[Tuple] | None = None,
    ) -> DiskBlock:
        """Store one non-empty block at the end of ``partition``."""
        if not len(columns):
            raise StorageError(f"refusing to write empty block to {partition!r}")
        block = DiskBlock(block_id, columns, sorted_by_key, tuples)
        self.partition(partition).blocks.append(block)
        return block

    def _stored_tuples(self, block: DiskBlock) -> list[Tuple]:
        """The boxed contents every tuple read serves (no I/O charge)."""
        return block.tuples

    def _charge_write(self, n_tuples: int) -> int:
        pages = pages_needed(n_tuples, self._costs.page_size)
        self._pages_written += pages
        self._clock.advance(self._costs.io_time(pages))
        return pages

    def _charge_read(self, n_tuples: int) -> int:
        pages = pages_needed(n_tuples, self._costs.page_size)
        self._pages_read += pages
        self._clock.advance(self._costs.io_time(pages))
        return pages
