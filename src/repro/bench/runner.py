"""Shared execution and reporting machinery for figure reproductions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.joins.base import StreamingJoinOperator
from repro.metrics.series import sample_ks
from repro.net.arrival import ArrivalProcess
from repro.net.source import NetworkSource
from repro.sim.broker import ResourceBroker
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationResult, run_join
from repro.storage.tuples import Relation


@dataclass(frozen=True, slots=True)
class ShapeCheck:
    """One published shape claim and whether this run reproduced it."""

    description: str
    passed: bool

    def render(self) -> str:
        marker = "ok " if self.passed else "FAIL"
        return f"  [{marker}] {self.description}"


@dataclass(slots=True)
class FigureReport:
    """Everything one figure reproduction produces.

    Attributes:
        figure_id: e.g. ``"fig11"``.
        title: The paper's caption, roughly.
        body: Pre-formatted tables (the rows/series the figure plots).
        checks: Shape claims evaluated against this run.
    """

    figure_id: str
    title: str
    body: str
    checks: list[ShapeCheck] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "=" * 72,
            f"{self.figure_id}: {self.title}",
            "=" * 72,
            self.body,
            "",
            "shape checks:",
        ]
        lines.extend(check.render() for check in self.checks)
        return "\n".join(lines)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def assert_ok(self) -> None:
        """Raise if any shape claim failed to reproduce."""
        failed = [c.description for c in self.checks if not c.passed]
        if failed:
            raise SimulationError(
                f"{self.figure_id}: shape checks failed: {failed}"
            )


def execute(
    rel_a: Relation,
    rel_b: Relation,
    operator: StreamingJoinOperator,
    arrival_a: ArrivalProcess,
    arrival_b: ArrivalProcess,
    seed_a: int = 11,
    seed_b: int = 22,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    stop_after: int | None = None,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
) -> SimulationResult:
    """Run one operator over one workload (results not retained)."""
    src_a = NetworkSource(rel_a, arrival_a, seed=seed_a)
    src_b = NetworkSource(rel_b, arrival_b, seed=seed_b)
    return run_join(
        src_a,
        src_b,
        operator,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=False,
        stop_after=stop_after,
        broker=broker,
        batch_delivery=batch_delivery,
    )


def early_ks(count: int, fractions: tuple[float, ...] = (0.002, 0.02, 0.1, 0.2, 0.4)) -> list[int]:
    """The k positions the paper's early-results claims are judged at."""
    ks = sorted({max(1, round(f * count)) for f in fractions})
    return [k for k in ks if k <= count]


def curve_ks(count: int, n_samples: int = 12) -> list[int]:
    """Display grid for a (k, metric) curve table."""
    return sample_ks(count, n_samples=n_samples)


CheckFn = Callable[[], bool]


def check(description: str, condition: bool) -> ShapeCheck:
    """Build a shape check from an evaluated condition."""
    return ShapeCheck(description=description, passed=bool(condition))
