"""File-backed disk: real spill files under the simulated cost model.

:class:`FileBackedDisk` keeps the :class:`~repro.storage.disk.SimulatedDisk`
interface and I/O accounting (virtual-clock charges, page counters)
while persisting every block as a binary file (see
:mod:`repro.storage.serialization`).  Reads genuinely round-trip
through the serialised form, so the spill files on disk are the source
of truth for the data the merging phase consumes — useful for
inspecting spill behaviour and for validating the codec under every
operator's workload.

Layout: ``<root>/<partition path>/block<NNNN>_<suffix>.rprb``, one
file per block; partition names like ``hmj/A/group3`` become nested
directories.  Dropped blocks delete their files.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from repro.errors import StorageError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import DiskBlock, SimulatedDisk
from repro.storage.serialization import decode_columns, encode_columns
from repro.storage.tuples import RelationColumns, Tuple, columns_to_tuples


class FileBackedDisk(SimulatedDisk):
    """A simulated disk whose blocks are persisted as real files."""

    def __init__(self, clock: VirtualClock, costs: CostModel, root: str | Path) -> None:
        super().__init__(clock, costs)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._files: dict[int, Path] = {}
        self._serial = itertools.count()

    @property
    def root(self) -> Path:
        """Directory holding the spill files."""
        return self._root

    def block_path(self, block: DiskBlock) -> Path:
        """The file backing ``block`` (raises if unknown)."""
        path = self._files.get(id(block))
        if path is None:
            raise StorageError(
                f"block {block.block_id} has no backing file on this disk"
            )
        return path

    def block_columns(self, block: DiskBlock) -> RelationColumns:
        """Column view of a block's *file* contents (no I/O charge).

        Every read on this disk decodes the block's file, so the spill
        file stays the source of truth for what the merge consumes.
        """
        path = self.block_path(block)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read block file {path}: {exc}") from exc
        return decode_columns(data)

    def drop_block(self, partition: str, block: DiskBlock) -> None:
        super().drop_block(partition, block)
        path = self._files.pop(id(block), None)
        if path is not None:
            path.unlink(missing_ok=True)

    def spill_files(self) -> list[Path]:
        """All live spill files, sorted for stable listings."""
        return sorted(self._files.values())

    def _append(
        self,
        partition: str,
        columns: RelationColumns,
        block_id: int,
        sorted_by_key: bool,
        tuples: list[Tuple] | None = None,
    ) -> DiskBlock:
        block = super()._append(partition, columns, block_id, sorted_by_key, tuples)
        directory = self._root / partition
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"block{block.block_id:04d}_{next(self._serial):06d}.rprb"
        path.write_bytes(encode_columns(columns))
        self._files[id(block)] = path
        return block

    def _stored_tuples(self, block: DiskBlock) -> list[Tuple]:
        return columns_to_tuples(self.block_columns(block))
