"""Declarative benchmark grid cells and their parallel executor.

Every figure in :mod:`repro.bench.figures` decomposes into independent
*grid cells*: one deterministic ``(workload, operator, config)``
simulation each.  A :class:`CellSpec` is a frozen, picklable value
describing a cell completely — relations are regenerated inside the
worker from the workload spec, arrivals from their parameter tuples,
and the network seeds ride along explicitly, so a cell produces the
identical result in-process, in a worker process, or on another
machine.

:class:`GridRunner` executes a batch of cells, fanning misses out over
a ``ProcessPoolExecutor`` (``jobs > 1``) and consulting an optional
:class:`~repro.bench.cache.ResultCache` first, so reruns are
incremental.  A cell's payload is a :class:`CellResult`: the run's
per-result time/I-O/phase columns plus the final clock/IO counters —
everything a figure builder needs, and nothing a worker cannot pickle
(the live recorder would drag the whole simulated disk along).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.bench.cache import ResultCache
from repro.bench.runner import execute
from repro.errors import ConfigurationError
from repro.metrics.recorder import ResultColumns
from repro.net.arrival import ArrivalProcess, BurstyArrival, ConstantRate
from repro.service.spec import ALGORITHMS, make_operator
from repro.sim.broker import ResourceBroker
from repro.storage.tuples import Relation
from repro.workloads.generator import WorkloadSpec, make_relation_pair


def constant_arrival(rate: float) -> tuple:
    """Arrival spec tuple for a :class:`ConstantRate` process."""
    return ("constant", float(rate))


def bursty_arrival(
    burst_size: int, intra_gap: float, mean_silence: float
) -> tuple:
    """Arrival spec tuple for a Pareto-silence :class:`BurstyArrival`."""
    return ("bursty", int(burst_size), float(intra_gap), float(mean_silence))


def build_arrival(spec: tuple) -> ArrivalProcess:
    """Instantiate the arrival process a spec tuple describes."""
    kind = spec[0]
    if kind == "constant":
        return ConstantRate(spec[1])
    if kind == "bursty":
        return BurstyArrival(
            burst_size=spec[1], intra_gap=spec[2], mean_silence=spec[3]
        )
    raise ConfigurationError(f"unknown arrival spec {spec!r}")


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One simulation cell, described declaratively.

    Attributes:
        figure_id: Figure this cell belongs to (presentation only —
            excluded from the cache fingerprint).
        cell_id: Unique label within the figure (presentation only).
        workload: The two-relation workload; relations are regenerated
            deterministically from it inside the executing process.
        operator: One of :data:`~repro.service.spec.ALGORITHMS`.
        operator_params: Sorted ``(name, value)`` pairs: a
            ``memory_capacity`` plus any other
            :func:`~repro.service.spec.make_operator` keyword
            (``flush_fraction``, ``fan_in``, ``policy``, ...).
        arrival_a / arrival_b: Arrival spec tuples (see
            :func:`constant_arrival` / :func:`bursty_arrival`).
        seed_a / seed_b: Network-source seeds — the per-cell seeding is
            explicit so a cell is reproducible in any process.
        blocking_threshold: Section 6.3's ``T``.
        stop_after: Optional early stop after k results.
        memory_schedule: Optional broker grant schedule
            ``((time, tuples), ...)`` applied mid-run.
    """

    figure_id: str
    cell_id: str
    workload: WorkloadSpec
    operator: str
    operator_params: tuple[tuple[str, object], ...]
    arrival_a: tuple
    arrival_b: tuple
    seed_a: int = 11
    seed_b: int = 22
    blocking_threshold: float = 1.0
    stop_after: int | None = None
    memory_schedule: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.operator not in ALGORITHMS:
            raise ConfigurationError(
                f"operator must be one of {ALGORITHMS}, got {self.operator!r}"
            )

    @property
    def key(self) -> str:
        """Globally unique cell key (``figure/cell``)."""
        return f"{self.figure_id}/{self.cell_id}"


class CellResult(ResultColumns):
    """Everything one executed cell hands back (picklable).

    Holds the run's result columns (time, page I/O, phase per result)
    and answers the recorder's queries (``count``, ``time_to_kth``,
    ``io_to_kth``, ``total_time``, ``total_io``, ``count_in_phase``,
    ``events``) through :class:`~repro.metrics.recorder.ResultColumns`,
    so the figure builders read it exactly like a live recorder.

    Attributes:
        final_clock: Virtual clock at end of run.
        final_io: The disk's cumulative I/O counter at end of run.
        completed: False when the run hit ``stop_after``.
        broker_applied: Broker grants that fired mid-run (0 without a
            schedule).
        wall_seconds: Real execution time of the simulation.
    """

    __slots__ = (
        "final_clock", "final_io", "completed", "broker_applied", "wall_seconds"
    )

    def __init__(
        self,
        times: list[float],
        ios: list[int],
        phases: list[str],
        final_clock: float,
        final_io: int,
        completed: bool,
        broker_applied: int,
        wall_seconds: float,
    ) -> None:
        super().__init__(times, ios, phases)
        self.final_clock = final_clock
        self.final_io = final_io
        self.completed = completed
        self.broker_applied = broker_applied
        self.wall_seconds = wall_seconds

    def __reduce__(self):
        # The columns and counters only: boxed events are rebuilt lazily.
        return (
            CellResult,
            (
                self._times,
                self._ios,
                self._phases,
                self.final_clock,
                self.final_io,
                self.completed,
                self.broker_applied,
                self.wall_seconds,
            ),
        )

    def _io_without_results(self) -> int:
        return self.final_io


#: Per-process relation memo: workers regenerate each workload once,
#: not once per cell (generation is deterministic, so this is purely
#: a speed win).
_RELATIONS: dict[WorkloadSpec, tuple[Relation, Relation]] = {}


def _relations(workload: WorkloadSpec) -> tuple[Relation, Relation]:
    pair = _RELATIONS.get(workload)
    if pair is None:
        pair = make_relation_pair(workload)
        _RELATIONS[workload] = pair
    return pair


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell: deterministic in any process.

    This is the worker entry point for the process pool; it must stay
    a module-level function so it pickles by reference.
    """
    rel_a, rel_b = _relations(spec.workload)
    params = dict(spec.operator_params)
    operator = make_operator(
        spec.operator, params.pop("memory_capacity"), **params
    )
    broker = (
        ResourceBroker([(t, m) for t, m in spec.memory_schedule])
        if spec.memory_schedule
        else None
    )
    started = time.perf_counter()
    result = execute(
        rel_a,
        rel_b,
        operator,
        build_arrival(spec.arrival_a),
        build_arrival(spec.arrival_b),
        seed_a=spec.seed_a,
        seed_b=spec.seed_b,
        blocking_threshold=spec.blocking_threshold,
        stop_after=spec.stop_after,
        broker=broker,
    )
    wall = time.perf_counter() - started
    # The recorder's own column lists: the run is over, so nothing
    # appends to them again, and no per-result event is boxed.
    return CellResult(
        *result.recorder.columns(),
        final_clock=result.clock.now,
        final_io=result.disk.io_count,
        completed=result.completed,
        broker_applied=len(broker.applied) if broker is not None else 0,
        wall_seconds=wall,
    )


@dataclass(slots=True)
class CellOutcome:
    """Bookkeeping row for one executed-or-cached cell."""

    spec: CellSpec
    result: CellResult
    cached: bool


class GridRunner:
    """Executes grid cells, optionally in parallel and through a cache.

    The runner is deterministic by construction: cell *results* do not
    depend on scheduling, only wall-clock bookkeeping does, so serial
    and parallel runs feed byte-identical data to the figure builders.

    Args:
        jobs: Worker processes (1 = run in-process, no pool).
        cache: Optional :class:`ResultCache`; hits skip execution.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.executed = 0
        self.cache_hits = 0
        self.outcomes: dict[str, CellOutcome] = {}

    def run(self, cells: Sequence[CellSpec]) -> dict[str, CellResult]:
        """Execute a batch of cells, returning results keyed by cell key."""
        results: dict[str, CellResult] = {}
        misses: list[CellSpec] = []
        for spec in cells:
            if spec.key in results or any(m.key == spec.key for m in misses):
                raise ConfigurationError(f"duplicate cell key {spec.key!r}")
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[spec.key] = hit
                self.cache_hits += 1
                self.outcomes[spec.key] = CellOutcome(spec, hit, cached=True)
            else:
                misses.append(spec)
        if misses:
            if self.jobs > 1 and len(misses) > 1:
                workers = min(self.jobs, len(misses))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    fresh = list(pool.map(run_cell, misses))
            else:
                fresh = [run_cell(spec) for spec in misses]
            for spec, result in zip(misses, fresh):
                results[spec.key] = result
                self.executed += 1
                self.outcomes[spec.key] = CellOutcome(spec, result, cached=False)
                if self.cache is not None:
                    self.cache.put(spec, result)
        return results

    @property
    def cells_total(self) -> int:
        """All cells this runner has resolved (executed + cached)."""
        return self.executed + self.cache_hits


#: A figure decomposed for the grid: ``cells(scale)`` enumerates the
#: specs, ``build(scale, results)`` assembles the report from results
#: keyed by ``cell_id``.
@dataclass(frozen=True)
class FigureGrid:
    """Declarative decomposition of one figure."""

    figure_id: str
    cells: Callable
    build: Callable


def run_figure_grid(grid: FigureGrid, scale, runner: GridRunner):
    """Run one figure's cells through a runner and build its report."""
    cells = grid.cells(scale)
    keyed = runner.run(cells)
    results = {spec.cell_id: keyed[spec.key] for spec in cells}
    return grid.build(scale, results)


def bench_manifest(
    runner: GridRunner,
    scale,
    reports: Sequence,
    wall_seconds: float,
    source_digest: str,
) -> dict:
    """The ``BENCH_figures.json`` payload (schema v1).

    Per cell: result count, final virtual clock, page I/O, wall
    seconds, and whether the cell came from the cache — the rows the
    perf trajectory is tracked with from PR 2 onward.
    """
    figures: dict[str, dict] = {}
    for key in sorted(runner.outcomes):
        outcome = runner.outcomes[key]
        fig = figures.setdefault(
            outcome.spec.figure_id, {"all_passed": None, "cells": {}}
        )
        fig["cells"][outcome.spec.cell_id] = {
            "count": outcome.result.count,
            "final_clock": outcome.result.final_clock,
            "io": outcome.result.final_io,
            "wall_seconds": round(outcome.result.wall_seconds, 6),
            "cached": outcome.cached,
        }
    for report in reports:
        if report.figure_id in figures:
            figures[report.figure_id]["all_passed"] = report.all_passed
    return {
        "schema": 1,
        "scale": {"n_per_source": scale.n_per_source, "seed": scale.seed},
        "jobs": runner.jobs,
        "source_digest": source_digest,
        "cells_total": runner.cells_total,
        "cells_executed": runner.executed,
        "cells_cached": runner.cache_hits,
        "wall_seconds": round(wall_seconds, 6),
        "figures": figures,
    }


def write_bench_manifest(path: str | Path, manifest: Mapping) -> Path:
    """Write the manifest as stable, diff-friendly JSON."""
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
