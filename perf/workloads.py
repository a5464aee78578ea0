"""The three batch workloads; each run happens in a fresh child process.

    python -m perf.workloads NAME --seed N --seconds S --spawned-at T \\
        [--trace] [--smoke] [--setup-only]

A run sets up (imports, plus relation generation for the stream jobs),
computes the oracle join sizes, runs one warm-up operation and then
timed operations until ``--seconds`` have passed (never fewer than
:data:`MIN_OPS`).  The GC stays on and ``gc.collect()`` runs before
every operation.  Every operation's ``(count, clock, io)`` triples are
checked.  An operation is timed in named parts that add up to its wall
time (one part for a job, one per cell and per figure remainder for a
grid pass); its reported time is the sum of the parts' medians.  In a
traced run the timed operations alternate untraced and traced; the
per-layer metrics come from the traced ones, and
``trace.overhead_ratio`` is the ratio of their median wall times.

The child prints one JSON object, its last line of output, with the raw
samples; :mod:`perf.run` turns them into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

from perf.common import OUT, TripleChecker, join_size, load_reference, sum_of_medians
from perf.trace import Tracer, layer_metrics
from repro.bench.figures import FIGURE_GRIDS
from repro.bench.grid import GridRunner, run_figure_grid
from repro.bench.scale import BenchScale
from repro.core.config import HMJConfig
from repro.core.flushing import AdaptiveFlushingPolicy
from repro.core.hmj import HashMergeJoin
from repro.metrics.recorder import MetricsRecorder
from repro.net.arrival import BurstyArrival, ConstantRate
from repro.net.source import NetworkSource
from repro.sim.engine import run_join
from repro.workloads.generator import WorkloadSpec, make_relation_pair, paper_workload

#: Timed operations per run, at least, however long they take.
MIN_OPS = 3


@contextmanager
def first_result_clock():
    """Stamp the wall time at which any recorder records its first result.

    Wraps the two recording entry points for exactly one call: the
    first one restores the originals, so the rest of the job runs the
    unmodified code.
    """
    names = ("record", "append_batch_columns")
    originals = {name: vars(MetricsRecorder)[name] for name in names}
    stamp: list[float] = []

    def restore() -> None:
        for name, original in originals.items():
            setattr(MetricsRecorder, name, original)

    def once(name: str):
        original = originals[name]

        def first(self, *args, **kwargs):
            # An empty column append records nothing; wait for a real one.
            if name == "record" or len(args[0] if args else kwargs["times"]):
                stamp.append(time.perf_counter())
                restore()
            return original(self, *args, **kwargs)

        return first

    for name in names:
        setattr(MetricsRecorder, name, once(name))
    try:
        yield stamp
    finally:
        restore()


class StreamJobs:
    """One HMJ job over two network sources per operation."""

    def __init__(self, spec: WorkloadSpec, memory: int, arrival, blocking_threshold: float):
        self.spec = spec
        self.memory = memory
        self.arrival = arrival
        self.blocking_threshold = blocking_threshold

    def setup(self) -> None:
        self.rel_a, self.rel_b = make_relation_pair(self.spec)

    def expected_counts(self) -> dict[str, int]:
        return {"job": join_size([self.rel_a.columns().keys, self.rel_b.columns().keys])}

    @property
    def tuples_per_op(self) -> int:
        return self.spec.n_a + self.spec.n_b

    def run(self):
        """One job as a library caller runs it: sources, operator, run_join.

        Returns the wall-time parts, the time-to-first-result parts, the
        keyed triples and any failures that produced no triple.
        """
        with first_result_clock() as first:
            start = time.perf_counter()
            operator = HashMergeJoin(
                HMJConfig(memory_capacity=self.memory, policy=AdaptiveFlushingPolicy())
            )
            result = run_join(
                NetworkSource(self.rel_a, self.arrival(), seed=11),
                NetworkSource(self.rel_b, self.arrival(), seed=22),
                operator,
                blocking_threshold=self.blocking_threshold,
                keep_results=False,
            )
            wall = time.perf_counter() - start
        ttfr = first[0] - start if first else wall
        triple = (result.recorder.count, result.clock.now, result.disk.io_count)
        return {"job": wall}, {"job": ttfr}, {"job": triple}, []


class GridPasses:
    """One serial pass over all cells of Figures 9-14 per operation."""

    def __init__(self, scale: BenchScale, shapes_calibrated: bool):
        self.scale = scale
        self.shapes_calibrated = shapes_calibrated
        self.cells = [cell for grid in FIGURE_GRIDS.values() for cell in grid.cells(scale)]

    def setup(self) -> None:
        """Nothing past the imports: the grid generates (and memoises)
        its relations itself, on the warm-up pass."""

    def expected_counts(self) -> dict[str, int]:
        sizes: dict = {}
        expected = {}
        for cell in self.cells:
            if cell.workload not in sizes:
                rel_a, rel_b = make_relation_pair(cell.workload)
                sizes[cell.workload] = join_size([rel_a.columns().keys, rel_b.columns().keys])
            size = sizes[cell.workload]
            # A first-k cell stops once k results exist; an operator that
            # emits a batch of results at once may pass k by that batch.
            expected[cell.key] = size if cell.stop_after is None else (
                min(size, cell.stop_after), size
            )
        return expected

    @property
    def tuples_per_op(self) -> int:
        return sum(cell.workload.n_a + cell.workload.n_b for cell in self.cells)

    def run(self):
        """One pass as ``run_figure_suite`` runs it, cache off; the first
        result is the first figure's report.

        The parts are each cell's simulation time and, per figure, the
        rest of its wall time (operator and broker construction, report
        assembly and shape checks).
        """
        runner = GridRunner(jobs=1)
        reports = []
        parts: dict[str, float] = {}
        first: dict[str, float] | None = None
        for grid in FIGURE_GRIDS.values():
            start = time.perf_counter()
            reports.append(run_figure_grid(grid, self.scale, runner))
            wall = time.perf_counter() - start
            figure = {
                key: o.result.wall_seconds
                for key, o in runner.outcomes.items()
                if o.spec.figure_id == grid.figure_id
            }
            figure[f"{grid.figure_id}:rest"] = wall - sum(figure.values())
            parts.update(figure)
            if first is None:
                first = figure
        triples = {
            key: (o.result.count, o.result.final_clock, o.result.final_io)
            for key, o in runner.outcomes.items()
        }
        # Shape claims are calibrated at one seed and scale; elsewhere
        # they are statistics of the data, not correctness.
        shape_failures = [
            f"{report.figure_id} shape check failed: {check.description}"
            for report in reports
            for check in report.checks
            if not check.passed and self.shapes_calibrated
        ]
        return parts, first, triples, shape_failures


def build(name: str, seed: int, smoke: bool):
    """The workload object for a batch workload name."""
    if name == "stream-1m":
        n = 20_000 if smoke else 500_000
        return StreamJobs(
            paper_workload(n, seed=seed),
            memory=2 * n,
            arrival=lambda: ConstantRate(5000.0),
            blocking_threshold=1.0,
        )
    if name == "spill-bursty":
        n = 6_000 if smoke else 120_000
        return StreamJobs(
            WorkloadSpec(n_a=n, n_b=n, key_range=n // 4, seed=seed),
            memory=n // 10,
            arrival=lambda: BurstyArrival(500, 1 / 5000, 0.5),
            blocking_threshold=0.05,
        )
    if name == "paper-grid":
        # At n=20k the fig 9a shape check flips; 10k is the calibrated scale.
        n = 1_000 if smoke else 10_000
        return GridPasses(BenchScale(n_per_source=n, seed=seed), seed == 7 and not smoke)
    raise ValueError(f"unknown batch workload {name!r}")


def measure(workload, seconds: float, trace: bool, checker: TripleChecker, name: str) -> dict:
    """Warm up, then time operations for ``seconds``; returns raw samples."""

    def operation(tracer: Tracer | None, index: int):
        gc.collect()
        if tracer is None:
            outcome = workload.run()
        else:
            with tracer.installed(), tracer.root("op", f"op-{index}"):
                outcome = workload.run()
        wall_parts, ttfr_parts, triples, shape_failures = outcome
        for key, triple in triples.items():
            checker.check(key, triple)
        for failure in shape_failures:
            checker.fail(failure)
        return wall_parts, ttfr_parts

    operation(None, 0)  # warm-up: checked, not timed
    tracer = Tracer() if trace else None
    walls, traced_walls = [], []
    wall_parts: dict[str, list[float]] = {}
    ttfr_parts: dict[str, list[float]] = {}
    started = time.perf_counter()
    last = 0.0
    while len(walls) + len(traced_walls) < MIN_OPS or (
        time.perf_counter() - started + last < seconds
    ):
        index = len(walls) + len(traced_walls) + 1
        traced = tracer is not None and index % 2 == 0
        parts, firsts = operation(tracer if traced else None, index)
        last = sum(parts.values())
        if traced:
            traced_walls.append(last)
            continue
        walls.append(last)
        for samples, new in ((wall_parts, parts), (ttfr_parts, firsts)):
            for key, value in new.items():
                samples.setdefault(key, []).append(value)
    result = {
        "walls": walls,
        "latency_s": sum_of_medians(wall_parts),
        "ttfr_s": sum_of_medians(ttfr_parts),
    }
    if tracer is not None:
        summary = tracer.write(OUT / f"{name}.trace.json")
        result["layers"] = layer_metrics(summary, len(traced_walls))
        result["layers"]["trace.overhead_ratio"] = float(
            np.median(traced_walls) / np.median(walls)
        )
        result["layers"]["client.inflight_max"] = 1
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.workloads")
    parser.add_argument("name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = build(args.name, args.seed, args.smoke)
    workload.setup()
    result: dict = {"workload": args.name, "setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        reference = load_reference(args.name, args.seed, args.smoke)
        checker = TripleChecker(workload.expected_counts(), reference)
        result.update(measure(workload, args.seconds, args.trace, checker, args.name))
        result.update(
            tuples_per_op=workload.tuples_per_op,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=checker.attempted,
            failed=checker.failed,
            failures=checker.failures[:20],
            triples={key: list(t) for key, t in checker.first_seen.items()},
        )
        if isinstance(workload, GridPasses):
            result["extra"] = {"pass_s": [result["latency_s"], "s"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
