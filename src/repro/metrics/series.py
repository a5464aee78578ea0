"""Series extraction: turning recorder events into plottable curves.

A :class:`Series` is a named list of ``(k, value)`` points — the
"time to k-th result" or "I/O to k-th result" curves that every figure
of the paper's Section 6 plots, sampled at a manageable set of ``k``
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.recorder import MetricsRecorder, ResultColumns


@dataclass(slots=True)
class Series:
    """A named curve of (k, value) points.

    Attributes:
        name: Label (algorithm or policy name).
        metric: ``"time"`` or ``"io"``.
        points: ``(k, value)`` pairs in increasing ``k``.
    """

    name: str
    metric: str
    points: list[tuple[int, float]] = field(default_factory=list)

    def ks(self) -> list[int]:
        """The sampled k positions."""
        return [k for k, _ in self.points]

    def values(self) -> list[float]:
        """The sampled metric values."""
        return [v for _, v in self.points]

    def value_at(self, k: int) -> float:
        """Value at an exactly sampled k (raises if not sampled)."""
        for kk, v in self.points:
            if kk == k:
                return v
        raise ConfigurationError(f"k={k} was not sampled in series {self.name!r}")

    def final(self) -> float:
        """Value at the largest sampled k."""
        if not self.points:
            raise ConfigurationError(f"series {self.name!r} is empty")
        return self.points[-1][1]


def sample_ks(total: int, n_samples: int = 40) -> list[int]:
    """Evenly spaced k positions from 1 to ``total`` (inclusive).

    Always includes 1 and ``total`` so both the first-result latency and
    the completion point appear in every curve.
    """
    if total < 1:
        return []
    if n_samples < 2:
        raise ConfigurationError(f"n_samples must be >= 2, got {n_samples}")
    ks = np.unique(np.linspace(1, total, num=min(n_samples, total), dtype=int))
    return [int(k) for k in ks]


def series_from_recorder(
    recorder: ResultColumns,
    name: str,
    metric: str = "time",
    ks: list[int] | None = None,
    n_samples: int = 40,
) -> Series:
    """Build the (k, time) or (k, io) curve from a finished run."""
    if metric not in ("time", "io"):
        raise ConfigurationError(f"metric must be 'time' or 'io', got {metric!r}")
    if ks is None:
        ks = sample_ks(recorder.count, n_samples=n_samples)
    getter = recorder.time_to_kth if metric == "time" else recorder.io_to_kth
    points = [(k, float(getter(k))) for k in ks if 1 <= k <= recorder.count]
    return Series(name=name, metric=metric, points=points)


def phase_counts(recorder: MetricsRecorder) -> dict[str, int]:
    """Results produced per phase (e.g. hashing vs merging split)."""
    counts: dict[str, int] = {}
    for event in recorder.events:
        counts[event.phase] = counts.get(event.phase, 0) + 1
    return counts
