"""Unit and integration tests for the file-backed disk."""

import pytest

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.errors import StorageError
from repro.joins.blocking import hash_join
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.engine import run_join
from repro.storage.filedisk import FileBackedDisk
from repro.storage.tuples import Tuple, result_multiset, tuples_to_columns
from repro.workloads.generator import WorkloadSpec, make_relation_pair


def make_disk(tmp_path, page_size=4):
    clock = VirtualClock()
    costs = CostModel(page_size=page_size, io_cost=1.0)
    return FileBackedDisk(clock, costs, tmp_path / "spill"), clock


def tuples(n, key=0):
    return [Tuple(key=key, tid=i) for i in range(n)]


def test_write_creates_a_real_file(tmp_path):
    disk, _ = make_disk(tmp_path)
    block = disk.write_block("p/A/g0", tuples(5), block_id=0)
    path = disk.block_path(block)
    assert path.exists()
    assert path.suffix == ".rprb"
    assert "p/A/g0" in str(path)


def test_read_roundtrips_through_the_file(tmp_path):
    disk, _ = make_disk(tmp_path)
    data = tuples(7, key=3)
    block = disk.write_block("p", data, block_id=0)
    # Corrupt the in-memory copy: reads must come from the file.
    block.tuples.clear()
    assert disk.read_block(block) == data


def test_page_reader_reads_from_file(tmp_path):
    disk, _ = make_disk(tmp_path, page_size=3)
    data = tuples(7)
    block = disk.write_block("p", data, block_id=0)
    block.tuples.clear()
    pages = list(disk.page_reader(block))
    assert [len(p) for p in pages] == [3, 3, 1]
    assert [t for page in pages for t in page] == data


def test_io_accounting_matches_simulated_disk(tmp_path):
    disk, clock = make_disk(tmp_path, page_size=4)
    block = disk.write_block("p", tuples(9), block_id=0)
    assert disk.pages_written == 3
    disk.read_block(block)
    assert disk.pages_read == 3
    assert clock.now == pytest.approx(6.0)


def test_drop_block_deletes_the_file(tmp_path):
    disk, _ = make_disk(tmp_path)
    block = disk.write_block("p", tuples(2), block_id=0)
    path = disk.block_path(block)
    disk.drop_block("p", block)
    assert not path.exists()
    with pytest.raises(StorageError):
        disk.block_path(block)


def test_adopt_block_is_persisted(tmp_path):
    disk, _ = make_disk(tmp_path)
    block = disk.adopt_block_columns("p", tuples_to_columns(tuples(3)), block_id=1)
    assert disk.block_path(block).exists()
    block.tuples.clear()
    assert len(disk.read_block(block)) == 3


def test_spill_files_lists_live_blocks(tmp_path):
    disk, _ = make_disk(tmp_path)
    b1 = disk.write_block("p", tuples(2), block_id=0)
    disk.write_block("q", tuples(2), block_id=0)
    assert len(disk.spill_files()) == 2
    disk.drop_block("p", b1)
    assert len(disk.spill_files()) == 1


def test_corrupt_file_raises_storage_error(tmp_path):
    disk, _ = make_disk(tmp_path)
    block = disk.write_block("p", tuples(2), block_id=0)
    disk.block_path(block).write_bytes(b"garbage")
    with pytest.raises(StorageError):
        disk.read_block(block)


def test_full_hmj_run_with_spill_dir(tmp_path):
    """End-to-end: HMJ over a file-backed disk equals the oracle."""
    spec = WorkloadSpec(n_a=400, n_b=400, key_range=600, seed=9)
    rel_a, rel_b = make_relation_pair(spec)
    src_a = NetworkSource(rel_a, ConstantRate(400.0), seed=1)
    src_b = NetworkSource(rel_b, ConstantRate(400.0), seed=2)
    op = HashMergeJoin(HMJConfig(memory_capacity=60, n_buckets=32))
    result = run_join(src_a, src_b, op, spill_dir=str(tmp_path / "spill"))
    assert isinstance(result.disk, FileBackedDisk)
    assert result_multiset(result.results) == result_multiset(hash_join(rel_a, rel_b))
    assert result.disk.io_count > 0


def test_spill_run_matches_simulated_run_exactly(tmp_path):
    """File-backed and in-memory disks give identical metrics."""
    spec = WorkloadSpec(n_a=300, n_b=300, key_range=400, seed=10)
    rel_a, rel_b = make_relation_pair(spec)

    def run_once(spill_dir):
        src_a = NetworkSource(rel_a, ConstantRate(300.0), seed=1)
        src_b = NetworkSource(rel_b, ConstantRate(300.0), seed=2)
        op = HashMergeJoin(HMJConfig(memory_capacity=50, n_buckets=16))
        return run_join(src_a, src_b, op, spill_dir=spill_dir)

    simulated = run_once(None)
    file_backed = run_once(str(tmp_path / "spill"))
    assert simulated.count == file_backed.count
    assert simulated.disk.io_count == file_backed.disk.io_count
    assert simulated.clock.now == pytest.approx(file_backed.clock.now)
