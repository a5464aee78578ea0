"""Experiment harness: one reproduction function per paper figure.

Each ``fig*`` function in :mod:`repro.bench.figures` runs the workload
of one figure from the paper's Section 6, prints the same rows/series
the figure plots, and checks the *shape* claims (who wins, by roughly
what factor, where crossovers fall).  Figures decompose into grid
cells (:mod:`repro.bench.grid`) that execute across worker processes
and an on-disk result cache (:mod:`repro.bench.cache`).  The
pytest-benchmark wrappers in ``benchmarks/`` call these functions;
they can also be run directly::

    python -m repro.bench.figures              # run every figure
    python -m repro.bench.figures fig11        # run one
    python -m repro.bench.figures --jobs 4     # parallel grid cells
"""

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache, source_digest
from repro.bench.figures import (
    ALL_FIGURES,
    FIGURE_GRIDS,
    fig09_flush_fraction,
    fig10_policies,
    fig11_fast_network,
    fig12_rate_skew,
    fig13_memory_size,
    fig14_bursty,
    run_figure_suite,
)
from repro.bench.grid import (
    CellResult,
    CellSpec,
    FigureGrid,
    GridRunner,
    run_cell,
    run_figure_grid,
)
from repro.bench.runner import FigureReport, ShapeCheck, execute
from repro.bench.scale import BenchScale, bench_scale

__all__ = [
    "ALL_FIGURES",
    "BenchScale",
    "CellResult",
    "CellSpec",
    "DEFAULT_CACHE_DIR",
    "FIGURE_GRIDS",
    "FigureGrid",
    "FigureReport",
    "GridRunner",
    "ResultCache",
    "ShapeCheck",
    "bench_scale",
    "execute",
    "fig09_flush_fraction",
    "fig10_policies",
    "fig11_fast_network",
    "fig12_rate_skew",
    "fig13_memory_size",
    "fig14_bursty",
    "run_cell",
    "run_figure_grid",
    "run_figure_suite",
    "source_digest",
]
