"""The decision rule of ``tools/perf_pair.py``, on synthetic reports.

The bounds are the repository's own ``BENCHMARK.json`` end-to-end
bounds; every report is shaped like the last line ``python -m perf``
prints.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "perf_pair.py"
_SPEC = importlib.util.spec_from_file_location("perf_pair", _PATH)
perf_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pair)

BOUNDS = perf_pair.load_bounds()

BASE = {
    "stream-1m/tuples_per_s": 1_600_000.0,
    "stream-1m/latency_p50_ms": 600.0,
    "spill-bursty/peak_rss_mb": 44.0,
    "tenants/setup_s": 0.32,
    "tenants/client.inflight_max": 1.0,  # printed, not gated
}


def report(changed=None, correct=True):
    """A ``python -m perf`` report: the base values with ``changed`` applied."""
    metrics = {**BASE, **(changed or {})}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    }


def test_bounds_come_from_benchmark_json():
    assert BOUNDS["tuples_per_s"] == ("higher", 0.25)
    assert BOUNDS["peak_rss_mb"] == ("lower", 0.15)
    assert "client.inflight_max" not in BOUNDS


def test_identical_runs_pass():
    assert perf_pair.verdict([(report(), report())] * 3, BOUNDS) == []


def test_regression_in_one_pair_only_passes():
    slow = report({"stream-1m/latency_p50_ms": 1200.0})
    pairs = [(report(), slow), (report(), report()), (report(), report())]
    assert perf_pair.verdict(pairs, BOUNDS) == []


def test_regression_in_every_pair_fails():
    slow = report({"stream-1m/latency_p50_ms": 1200.0})
    failures = perf_pair.verdict([(report(), slow)] * 3, BOUNDS)
    assert len(failures) == 1
    assert failures[0].startswith("stream-1m/latency_p50_ms: worse than its 25% bound")


def test_lower_is_better_metric_within_bound_passes():
    # +14% RSS is inside its 15% bound; +16% is not.
    inside = report({"spill-bursty/peak_rss_mb": 44.0 * 1.14})
    outside = report({"spill-bursty/peak_rss_mb": 44.0 * 1.16})
    assert perf_pair.verdict([(report(), inside)] * 2, BOUNDS) == []
    assert perf_pair.verdict([(report(), outside)] * 2, BOUNDS) != []


@pytest.mark.parametrize("factor, fails", [(0.5, True), (0.8, False), (2.0, False)])
def test_higher_is_better_metric_is_judged_upwards(factor, fails):
    head = report({"stream-1m/tuples_per_s": 1_600_000.0 * factor})
    failures = perf_pair.verdict([(report(), head)] * 3, BOUNDS)
    assert bool(failures) == fails


def test_metric_without_bound_is_not_judged():
    head = report({"tenants/client.inflight_max": 9.0})
    assert perf_pair.verdict([(report(), head)] * 3, BOUNDS) == []


def test_head_run_not_correct_fails():
    pairs = [(report(), report()), (report(), report(correct=False)), (report(), report())]
    assert perf_pair.verdict(pairs, BOUNDS) == ["pair 2: the head run is not correct"]


def test_missing_head_report_fails_and_missing_base_report_cannot_regress():
    assert perf_pair.verdict([(report(), None), (report(), report())], BOUNDS) == [
        "pair 1: the head run is not correct"
    ]
    slow = report({"stream-1m/latency_p50_ms": 1200.0})
    assert perf_pair.verdict([(None, slow), (report(), slow)], BOUNDS) == []


def test_worsening_sign_follows_direction():
    assert perf_pair.worsening(100.0, 130.0, "lower") == pytest.approx(0.3)
    assert perf_pair.worsening(100.0, 70.0, "higher") == pytest.approx(0.3)
    assert perf_pair.worsening(100.0, 130.0, "higher") == pytest.approx(-0.3)
    assert perf_pair.worsening(0.0, 1.0, "lower") is None


def test_a_single_pair_is_refused():
    with pytest.raises(SystemExit) as exc:
        perf_pair.main(["--base", ".", "--head", ".", "--pairs", "1"])
    assert exc.value.code == 2
