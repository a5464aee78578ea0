"""Unit tests for sorted runs and the scalar oracle's merge primitives."""

import pytest

from repro.errors import StorageError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.runs import SortedRun
from repro.storage.tuples import Tuple
from repro.testing.scalar_merge import (
    PagedRunWriter,
    key_merge_iterator,
    merge_sorted_runs,
)


def make_disk(page_size=4):
    clock = VirtualClock()
    return SimulatedDisk(clock, CostModel(page_size=page_size, io_cost=1.0)), clock


def sorted_block(disk, partition, keys, block_id):
    tuples = sorted(
        (Tuple(key=k, tid=i) for i, k in enumerate(keys)), key=Tuple.sort_key
    )
    return disk.write_block(partition, tuples, block_id, sorted_by_key=True)


def test_sorted_run_rejects_unsorted_block():
    disk, _ = make_disk()
    block = disk.write_block("p", [Tuple(key=1, tid=0)], block_id=0)
    with pytest.raises(StorageError):
        SortedRun(block=block, origin=0)


def test_sorted_run_from_block_uses_block_id():
    disk, _ = make_disk()
    block = sorted_block(disk, "p", [1, 2], block_id=9)
    run = SortedRun.from_block(block)
    assert run.origin == 9
    assert len(run) == 2


def test_merge_produces_global_key_order():
    disk, _ = make_disk()
    run1 = SortedRun(sorted_block(disk, "p", [1, 4, 9], 0), origin=0)
    run2 = SortedRun(sorted_block(disk, "p", [2, 4, 8], 1), origin=1)
    merged = merge_sorted_runs([run1, run2], disk)
    keys = [t.key for t, _ in merged]
    assert keys == sorted(keys)
    assert len(merged) == 6


def test_merge_tags_tuples_with_run_origin():
    disk, _ = make_disk()
    run1 = SortedRun(sorted_block(disk, "p", [1, 3], 0), origin=10)
    run2 = SortedRun(sorted_block(disk, "p", [2], 1), origin=20)
    merged = merge_sorted_runs([run1, run2], disk)
    assert [(t.key, origin) for t, origin in merged] == [(1, 10), (2, 20), (3, 10)]


def test_merge_of_single_run_is_identity():
    disk, _ = make_disk()
    run = SortedRun(sorted_block(disk, "p", [5, 6, 7], 0), origin=0)
    merged = merge_sorted_runs([run], disk)
    assert [t.key for t, _ in merged] == [5, 6, 7]


def test_merge_of_no_runs_is_empty():
    disk, _ = make_disk()
    assert merge_sorted_runs([], disk) == []


def test_merge_charges_read_io_lazily():
    disk, _ = make_disk(page_size=2)
    run1 = SortedRun(sorted_block(disk, "p", [1, 2, 3, 4], 0), origin=0)
    reads_before = disk.pages_read
    it = key_merge_iterator([run1], disk)
    assert disk.pages_read == reads_before
    next(it)
    assert disk.pages_read == reads_before + 1
    next(it)
    assert disk.pages_read == reads_before + 1  # still within first page
    next(it)
    assert disk.pages_read == reads_before + 2


def test_merge_many_runs_heap_order_with_duplicates():
    disk, _ = make_disk()
    runs = [
        SortedRun(sorted_block(disk, "p", [1, 1, 5], 0), origin=0),
        SortedRun(sorted_block(disk, "p", [1, 2, 5], 1), origin=1),
        SortedRun(sorted_block(disk, "p", [0, 5, 5], 2), origin=2),
    ]
    merged = merge_sorted_runs(runs, disk)
    keys = [t.key for t, _ in merged]
    assert keys == sorted(keys)
    assert keys.count(5) == 4


def test_writer_charges_page_on_fill_and_close():
    disk, _ = make_disk(page_size=2)
    writer = PagedRunWriter(disk, "out", block_id=0)
    writer.append(Tuple(key=1, tid=0))
    assert disk.pages_written == 0
    writer.append(Tuple(key=2, tid=1))
    assert disk.pages_written == 1
    writer.append(Tuple(key=3, tid=2))
    block = writer.close()
    assert disk.pages_written == 2  # final partial page charged at close
    assert block is not None
    assert len(block) == 3
    assert block.sorted_by_key
    assert disk.partition("out").blocks == [block]


def test_writer_close_empty_returns_none():
    disk, _ = make_disk()
    writer = PagedRunWriter(disk, "out", block_id=0)
    assert writer.close() is None
    assert disk.pages_written == 0
    assert disk.partition("out").blocks == []


def test_writer_rejects_use_after_close():
    disk, _ = make_disk()
    writer = PagedRunWriter(disk, "out", block_id=0)
    writer.close()
    with pytest.raises(StorageError):
        writer.append(Tuple(key=1, tid=0))
    with pytest.raises(StorageError):
        writer.close()


def test_writer_count_tracks_appends():
    disk, _ = make_disk()
    writer = PagedRunWriter(disk, "out", block_id=0)
    writer.append(Tuple(key=1, tid=0))
    writer.append(Tuple(key=1, tid=1))
    assert writer.count == 2
