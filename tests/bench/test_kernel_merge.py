"""Smoke tests for the kernel bench's merge-heavy point.

Small scale throughout — these pin the point's schema, the cross-path
triple equality, and the flushed-fraction accounting, not the headline
speedup (the full-scale run and its ≥2x gate live in
``BENCH_kernel.json`` / CI, where timing is meaningful).
"""

from __future__ import annotations

import pytest

from repro.bench.kernel import (
    MERGE_FLUSHED_FLOOR,
    MERGE_SCHEDULERS,
    MERGE_SPEEDUP_GATE,
    _keep_triple,
    _timing_summary,
    merge_point,
    merge_run,
)
from repro.errors import SimulationError


def test_merge_run_paths_agree_on_triple_and_flushed():
    outcomes = {kind: merge_run(kind, 2_000, seed=7) for kind in MERGE_SCHEDULERS}
    triples = {triple for triple, *_ in outcomes.values()}
    assert len(triples) == 1
    (count, clock, io) = triples.pop()
    assert count > 0 and clock > 0 and io > 0
    flushed = {flushed for *_, flushed in outcomes.values()}
    assert len(flushed) == 1  # same history on both paths


def test_merge_point_schema_and_gate_accounting():
    point = merge_point(2_000, repeats=1, seed=7)
    assert point["triples_match"]
    workload = point["workload"]
    assert workload["tuples_flushed"] <= workload["tuples_total"]
    # The pre-loaded history is the spill-everything regime: far above
    # the >= 50% floor the gate asserts.
    assert workload["flushed_fraction"] >= MERGE_FLUSHED_FLOOR
    assert point["gates"] == {
        "speedup_floor": MERGE_SPEEDUP_GATE,
        "flushed_floor": MERGE_FLUSHED_FLOOR,
    }
    for kind in MERGE_SCHEDULERS:
        assert point[kind]["wall_seconds"] > 0
        assert len(point[kind]["walls"]) == 1
        assert point[kind]["cpu_seconds"] > 0
        assert len(point[kind]["cpus"]) == 1
    # gate_passed folds in the (timing-dependent) speedup floor; at this
    # scale only its deterministic inputs are assertable.
    assert point["speedup_merge"] > 0
    assert point["speedup_merge_cpu"] > 0
    assert isinstance(point["gate_passed"], bool)


def test_walls_summary_reports_median_and_iqr():
    summary = _timing_summary([0.4, 0.1, 0.3, 0.2, 9.0])
    # One slow outlier moves neither the median nor the quartiles far.
    assert summary["wall_seconds"] == 0.3
    assert summary["wall_iqr"] == [0.2, 0.4]
    assert summary["walls"] == [0.4, 0.1, 0.3, 0.2, 9.0]
    cpu = _timing_summary([0.2, 0.1, 0.3], "cpu")
    assert cpu == {"cpu_seconds": 0.2, "cpu_iqr": [0.15, 0.25], "cpus": [0.2, 0.1, 0.3]}


def test_differing_repeat_triple_raises_typed_error():
    triples = {}
    _keep_triple(triples, "columnar", (1, 2.0, 3), "columnar run")
    _keep_triple(triples, "columnar", (1, 2.0, 3), "columnar run")
    with pytest.raises(SimulationError, match="non-deterministic columnar run"):
        _keep_triple(triples, "columnar", (1, 2.5, 3), "columnar run")
