"""Tests for the benchmark grid executor and its result cache."""

import pickle

import pytest

from repro.bench.cache import ResultCache, spec_fingerprint
from repro.bench.figures import FIGURE_GRIDS
from repro.bench.grid import (
    CellSpec,
    GridRunner,
    build_arrival,
    bursty_arrival,
    constant_arrival,
    run_cell,
    run_figure_grid,
)
from repro.bench.scale import BenchScale
from repro.errors import ConfigurationError
from repro.net.arrival import BurstyArrival, ConstantRate
from repro.workloads.generator import WorkloadSpec

SCALE = BenchScale(n_per_source=200, seed=5)


def _cell(cell_id="c0", figure_id="figX", operator="hmj", **overrides):
    defaults = dict(
        figure_id=figure_id,
        cell_id=cell_id,
        workload=SCALE.spec,
        operator=operator,
        operator_params=(("memory_capacity", SCALE.spec.memory_capacity()),),
        arrival_a=constant_arrival(SCALE.fast_rate),
        arrival_b=constant_arrival(SCALE.fast_rate),
    )
    defaults.update(overrides)
    return CellSpec(**defaults)


# -- cell specs and execution -----------------------------------------------


def test_cell_spec_rejects_unknown_operator():
    with pytest.raises(ConfigurationError):
        _cell(operator="nested-loops")


def test_cell_spec_is_picklable_and_hashable():
    spec = _cell()
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert spec.key == "figX/c0"


def test_build_arrival_round_trip():
    constant = build_arrival(constant_arrival(250.0))
    assert isinstance(constant, ConstantRate)
    bursty = build_arrival(bursty_arrival(10, 0.004, 0.5))
    assert isinstance(bursty, BurstyArrival)
    with pytest.raises(ConfigurationError):
        build_arrival(("warp", 1.0))


def test_run_cell_is_deterministic_across_calls():
    spec = _cell()
    first = run_cell(spec)
    second = run_cell(spec)
    assert first.events == second.events
    assert first.final_clock == second.final_clock
    assert first.final_io == second.final_io
    assert first.count > 0


def _cell_and_live_recorder(monkeypatch, spec):
    """Run ``spec`` through run_cell, keeping the run's live recorder."""
    import repro.bench.grid as grid

    runs = []
    real_execute = grid.execute

    def capturing_execute(*args, **kwargs):
        runs.append(real_execute(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(grid, "execute", capturing_execute)
    result = run_cell(spec)
    (run,) = runs
    return result, run


def _assert_answers_like(cell, live, final_io):
    assert cell.count == live.count
    assert cell.events == live.events
    assert list(cell.iter_events()) == list(live.iter_events())
    assert cell.total_time() == live.total_time()
    assert cell.total_io() == live.total_io()
    for k in range(1, live.count + 1):
        assert cell.time_to_kth(k) == live.time_to_kth(k)
        assert cell.io_to_kth(k) == live.io_to_kth(k)
    for phase in {e.phase for e in live.events} | {"no-such-phase"}:
        assert cell.count_in_phase(phase) == live.count_in_phase(phase)
    for bad_k in (0, live.count + 1):
        with pytest.raises(ConfigurationError):
            cell.time_to_kth(bad_k)
        with pytest.raises(ConfigurationError):
            cell.io_to_kth(bad_k)
    assert cell.final_io == final_io


_NO_MATCHES = WorkloadSpec(n_a=60, n_b=60, key_range=10**12, seed=3)


@pytest.mark.parametrize(
    "spec",
    [
        _cell("hmj"),
        _cell("xjoin", operator="xjoin"),
        _cell("pmj", operator="pmj"),
        _cell("first-k", stop_after=25),
        _cell(
            "empty",
            workload=_NO_MATCHES,
            operator_params=(("memory_capacity", 10),),
        ),
    ],
    ids=lambda spec: spec.cell_id,
)
def test_cell_result_answers_like_the_live_recorder(monkeypatch, spec):
    result, run = _cell_and_live_recorder(monkeypatch, spec)
    live = run.recorder
    assert result.final_clock == run.clock.now
    assert result.completed == run.completed
    _assert_answers_like(result, live, run.disk.io_count)
    # The bench cache stores pickles: the round trip answers the same.
    _assert_answers_like(
        pickle.loads(pickle.dumps(result)), live, run.disk.io_count
    )
    if spec.cell_id == "first-k":
        assert result.count == 25 and not result.completed
    if spec.cell_id == "empty":
        # No results: total_io falls back to the run's final disk count.
        assert result.count == 0
        assert result.final_io > 0
        assert result.total_io() == result.final_io


# -- the runner --------------------------------------------------------------


def test_runner_rejects_bad_jobs_and_duplicate_keys():
    with pytest.raises(ConfigurationError):
        GridRunner(jobs=0)
    runner = GridRunner()
    with pytest.raises(ConfigurationError):
        runner.run([_cell("same"), _cell("same")])


def test_parallel_results_identical_to_serial():
    cells = [
        _cell("hmj-cell"),
        _cell("xjoin-cell", operator="xjoin"),
        _cell("pmj-cell", operator="pmj"),
    ]
    serial = GridRunner(jobs=1).run(cells)
    parallel = GridRunner(jobs=4).run(cells)
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key].events == parallel[key].events
        assert serial[key].final_clock == parallel[key].final_clock
        assert serial[key].final_io == parallel[key].final_io


def test_figure_render_byte_identical_serial_vs_parallel():
    grid = FIGURE_GRIDS["fig10"]
    serial = run_figure_grid(grid, SCALE, GridRunner(jobs=1))
    parallel = run_figure_grid(grid, SCALE, GridRunner(jobs=4))
    assert serial.render() == parallel.render()


# -- the cache ---------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path, digest="d1")
    spec = _cell()
    assert cache.get(spec) is None
    result = run_cell(spec)
    cache.put(spec, result)
    assert len(cache) == 1
    hit = cache.get(spec)
    assert hit is not None
    assert hit.events == result.events
    assert cache.hits == 1 and cache.misses == 1


def test_cache_invalidated_by_source_digest(tmp_path):
    spec = _cell()
    result = run_cell(spec)
    old = ResultCache(tmp_path, digest="rev-1")
    old.put(spec, result)
    new = ResultCache(tmp_path, digest="rev-2")
    assert new.get(spec) is None
    assert old.get(spec) is not None


def test_cache_invalidated_by_spec_change(tmp_path):
    cache = ResultCache(tmp_path, digest="d1")
    cache.put(_cell(), run_cell(_cell()))
    assert cache.get(_cell(seed_a=99)) is None
    assert cache.get(_cell(blocking_threshold=0.05)) is None


def test_presentation_fields_share_cache_entries(tmp_path):
    a = _cell(cell_id="left", figure_id="fig_a")
    b = _cell(cell_id="right", figure_id="fig_b")
    assert spec_fingerprint(a) == spec_fingerprint(b)
    cache = ResultCache(tmp_path, digest="d1")
    cache.put(a, run_cell(a))
    assert cache.get(b) is not None


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, digest="d1")
    spec = _cell()
    cache.put(spec, run_cell(spec))
    cache.path_for(spec).write_bytes(b"not a pickle")
    assert cache.get(spec) is None


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "c", digest="d1")
    cache.put(_cell(), run_cell(_cell()))
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_second_run_executes_zero_cells(tmp_path):
    grid = FIGURE_GRIDS["fig10"]
    cold = GridRunner(jobs=1, cache=ResultCache(tmp_path))
    first = run_figure_grid(grid, SCALE, cold)
    assert cold.executed == 3 and cold.cache_hits == 0
    warm = GridRunner(jobs=1, cache=ResultCache(tmp_path))
    second = run_figure_grid(grid, SCALE, warm)
    assert warm.executed == 0 and warm.cache_hits == 3
    assert first.render() == second.render()


def test_bench_manifest_schema(tmp_path):
    from repro.bench.grid import bench_manifest, write_bench_manifest

    grid = FIGURE_GRIDS["fig10"]
    runner = GridRunner(jobs=2, cache=ResultCache(tmp_path / "cache"))
    report = run_figure_grid(grid, SCALE, runner)
    manifest = bench_manifest(runner, SCALE, [report], 1.5, "digest-x")
    assert manifest["schema"] == 1
    assert manifest["jobs"] == 2
    assert manifest["cells_total"] == 3
    assert manifest["cells_executed"] == 3
    assert manifest["cells_cached"] == 0
    assert manifest["source_digest"] == "digest-x"
    fig = manifest["figures"]["fig10"]
    assert fig["all_passed"] == report.all_passed
    assert set(fig["cells"]) == {"all", "smallest", "adaptive"}
    for cell in fig["cells"].values():
        assert cell["count"] > 0
        assert cell["final_clock"] > 0
        assert cell["io"] >= 0
        assert cell["wall_seconds"] > 0
        assert cell["cached"] is False
    out = write_bench_manifest(tmp_path / "BENCH_figures.json", manifest)
    import json

    assert json.loads(out.read_text()) == manifest
