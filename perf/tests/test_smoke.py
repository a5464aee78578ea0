"""End-to-end runs of ``python -m perf`` at smoke size."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perf.common import MANIFEST, PERF, ROOT, WORKLOADS, declared_metrics

ROW_FIELDS = 4  # workload, metric, value, unit


def run_perf(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "perf", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": ""},
    )


def printed_metrics(stdout: str) -> dict[str, dict[str, str]]:
    """workload -> metric -> unit, from the human-readable rows."""
    rows: dict[str, dict[str, str]] = {}
    for line in stdout.splitlines()[:-1]:
        fields = line.split()
        if len(fields) == ROW_FIELDS and fields[0] in WORKLOADS:
            rows.setdefault(fields[0], {})[fields[1]] = fields[3]
    return rows


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "per-layer"])
def test_smoke_run_prints_exactly_the_declared_metrics(trace):
    started = time.perf_counter()
    proc = run_perf("--smoke", *(["--trace"] if trace else []))
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    declared = declared_metrics(trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {
        f"{workload}/{name}": unit for workload in WORKLOADS for name, unit in declared.items()
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = printed_metrics(proc.stdout)
    for workload in WORKLOADS:
        shown = {k: u for k, u in printed[workload].items() if k in declared}
        assert shown == declared


def test_manifest_matches_the_workloads():
    manifest = json.loads(MANIFEST.read_text())
    assert tuple(w["name"] for w in manifest["workloads"]) == WORKLOADS
    assert manifest["paths"] == ["perf"]


def copy_benchmark(tmp_path):
    """The benchmark's own files alone in ``tmp_path``, as a checkout has them."""
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(MANIFEST, tmp_path / MANIFEST.name)


def test_injected_mismatch_exits_nonzero(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "perf" / "reference.json").write_text(json.dumps(
        {"seed": 7, "smoke": True, "workloads": {"stream-1m": {"job": [1, 0.0, 0]}}}
    ))
    proc = run_perf("--smoke", "--workload", "stream-1m", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_perf(
        "--workload", "stream-1m", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
