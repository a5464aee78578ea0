"""Unit tests for the simulated disk and its I/O accounting."""

import pytest

from repro.errors import StorageError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.filedisk import FileBackedDisk
from repro.storage.tuples import Tuple, tuples_to_columns


def make_disk(page_size=4, io_cost=1.0):
    clock = VirtualClock()
    costs = CostModel(page_size=page_size, io_cost=io_cost)
    return SimulatedDisk(clock, costs), clock


def tuples(n, key=0):
    return [Tuple(key=key, tid=i) for i in range(n)]


def test_write_block_charges_pages_and_clock():
    disk, clock = make_disk(page_size=4, io_cost=1.0)
    disk.write_block("p", tuples(9), block_id=0)
    assert disk.pages_written == 3
    assert disk.pages_read == 0
    assert disk.io_count == 3
    assert clock.now == pytest.approx(3.0)


def test_write_empty_block_rejected():
    disk, _ = make_disk()
    with pytest.raises(StorageError):
        disk.write_block("p", [], block_id=0)


def test_read_block_charges_pages():
    disk, clock = make_disk(page_size=4, io_cost=1.0)
    block = disk.write_block("p", tuples(5), block_id=0)
    data = disk.read_block(block)
    assert len(data) == 5
    assert disk.pages_read == 2
    assert clock.now == pytest.approx(2.0 + 2.0)


def test_page_reader_charges_incrementally():
    disk, _ = make_disk(page_size=4)
    block = disk.write_block("p", tuples(10), block_id=0)
    written = disk.pages_written
    reader = disk.page_reader(block)
    assert disk.pages_read == 0
    first = next(reader)
    assert len(first) == 4
    assert disk.pages_read == 1
    rest = list(reader)
    assert [len(p) for p in rest] == [4, 2]
    assert disk.pages_read == 3
    assert disk.pages_written == written


def test_partition_get_or_create():
    disk, _ = make_disk()
    p1 = disk.partition("x")
    p2 = disk.partition("x")
    assert p1 is p2
    assert [p.name for p in disk.partitions()] == ["x"]


def test_partition_tracks_blocks_in_order():
    disk, _ = make_disk()
    disk.write_block("p", tuples(2), block_id=5)
    disk.write_block("p", tuples(2), block_id=7)
    part = disk.partition("p")
    assert part.block_ids() == [5, 7]
    assert part.total_tuples() == 4
    assert len(part) == 2


def test_drop_block_removes_it():
    disk, _ = make_disk()
    block = disk.write_block("p", tuples(2), block_id=0)
    disk.drop_block("p", block)
    assert disk.partition("p").blocks == []


def test_drop_unknown_block_rejected():
    disk, _ = make_disk()
    block = disk.write_block("p", tuples(2), block_id=0)
    disk.drop_block("p", block)
    with pytest.raises(StorageError):
        disk.drop_block("p", block)


def test_charge_write_pages_without_storing():
    disk, clock = make_disk(page_size=4, io_cost=1.0)
    pages = disk.charge_write_pages(6)
    assert pages == 2
    assert disk.pages_written == 2
    assert clock.now == pytest.approx(2.0)
    assert disk.partitions() == []


def test_adopt_block_registers_without_charging():
    disk, clock = make_disk()
    block = disk.adopt_block_columns("p", tuples_to_columns(tuples(3)), block_id=1)
    assert disk.io_count == 0
    assert clock.now == 0.0
    assert disk.partition("p").blocks == [block]


def test_adopt_empty_block_rejected():
    disk, _ = make_disk()
    with pytest.raises(StorageError):
        disk.adopt_block_columns("p", tuples_to_columns([]), block_id=1)


def test_block_pages_helper():
    disk, _ = make_disk(page_size=4)
    block = disk.write_block("p", tuples(5), block_id=0)
    assert block.pages(4) == 2
    assert len(block) == 5


def test_sorted_flag_persisted():
    disk, _ = make_disk()
    plain = disk.write_block("p", tuples(2), block_id=0)
    sorted_blk = disk.write_block("p", tuples(2), block_id=1, sorted_by_key=True)
    assert not plain.sorted_by_key
    assert sorted_blk.sorted_by_key


def test_partition_stats_reports_utilisation():
    disk, _ = make_disk(page_size=4)
    disk.write_block("full", tuples(8), block_id=0)   # 2 full pages
    disk.write_block("waste", tuples(1), block_id=0)  # 1 page, 25% used
    stats = {s["partition"]: s for s in disk.partition_stats()}
    assert stats["full"]["utilisation"] == pytest.approx(1.0)
    assert stats["full"]["pages"] == 2
    assert stats["waste"]["utilisation"] == pytest.approx(0.25)


def test_partition_stats_skips_empty_partitions():
    disk, _ = make_disk()
    disk.partition("empty")
    block = disk.write_block("p", tuples(2), block_id=0)
    disk.drop_block("p", block)
    assert disk.partition_stats() == []


@pytest.mark.parametrize("with_payloads", [False, True])
@pytest.mark.parametrize("file_backed", [False, True])
def test_tuple_and_column_writes_store_the_same_block(
    tmp_path, file_backed, with_payloads
):
    data = [
        Tuple(key=k, tid=i, source="B", payload=f"p{i}" if with_payloads else None)
        for i, k in enumerate([4, 1, 9, 1, 7, 3, 3])
    ]
    observed = []
    for write in ("write_block", "write_block_columns"):
        clock = VirtualClock()
        costs = CostModel(page_size=3, io_cost=1.0)
        disk = (
            FileBackedDisk(clock, costs, tmp_path / write)
            if file_backed
            else SimulatedDisk(clock, costs)
        )
        stored = data if write == "write_block" else tuples_to_columns(data)
        block = getattr(disk, write)("p", stored, block_id=2)
        written = (disk.pages_written, clock.now)
        read = disk.read_block(block)
        pages = list(disk.page_reader(block))
        cols = disk.block_columns(block)
        observed.append(
            (
                written,
                read,
                pages,
                (cols.keys.tolist(), cols.tids.tolist(), cols.payloads, cols.source),
                (disk.pages_read, clock.now),
            )
        )
    assert observed[0] == observed[1]
    written, read, pages, cols, _ = observed[0]
    assert written == (3, 3.0)
    assert read == data
    assert [len(p) for p in pages] == [3, 3, 1]
    assert cols[3] == "B"
    assert cols[2] == ([t.payload for t in data] if with_payloads else None)
