"""Metrics: per-result recording and series extraction.

The paper's evaluation plots "time to produce the k-th output tuple"
and "I/Os to produce the k-th output tuple".  The recorder snapshots
the virtual clock and the disk's I/O counter at every emitted result
(tagged with the producing phase), and the series helpers turn those
snapshots into exactly the curves of Figures 9-14.
"""

from repro.metrics.ascii_plot import plot_series
from repro.metrics.estimators import (
    JoinSizeEstimator,
    ProgressEstimator,
    SelectivityEstimator,
)
from repro.metrics.export import (
    load_series_csv,
    recorder_to_csv,
    series_to_csv,
    series_to_markdown,
)
from repro.metrics.recorder import MetricsRecorder, ResultColumns, ResultEvent
from repro.metrics.summary import (
    PhaseSegment,
    RunSummary,
    detect_knee,
    phase_segments,
    summarise_run,
)
from repro.metrics.report import format_comparison, format_table
from repro.metrics.series import Series, phase_counts, sample_ks, series_from_recorder

__all__ = [
    "JoinSizeEstimator",
    "MetricsRecorder",
    "PhaseSegment",
    "ProgressEstimator",
    "SelectivityEstimator",
    "ResultColumns",
    "ResultEvent",
    "RunSummary",
    "Series",
    "format_comparison",
    "format_table",
    "detect_knee",
    "load_series_csv",
    "phase_counts",
    "phase_segments",
    "plot_series",
    "recorder_to_csv",
    "sample_ks",
    "series_from_recorder",
    "series_to_csv",
    "series_to_markdown",
    "summarise_run",
]
