"""``python -m perf``: run the workloads and print every metric.

    python -m perf [--workload NAME]... [--seed N] [--seconds S]
                   [--trace [0|1]] [--smoke]

Workloads run one after another.  A batch workload (``stream-1m``,
``spill-bursty``, ``paper-grid``) runs in a fresh child process
(:mod:`perf.workloads`), after more children that only set up, so
``setup_s`` is a median of :data:`~perf.common.SETUP_REPEATS` set-ups.
``tenants`` spawns its server as a child and drives it from this
process (:mod:`perf.tenants`).  No more than two processes are alive at
once.

Without ``--trace`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace`` they are its per-layer ones, from a
separate traced run.  Each is printed with its unit, then the last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (names prefixed ``workload/`` when several workloads ran).
Exit status: 0 when every operation passed its checks, 1 when any
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import numpy as np

from perf.common import (
    BATCH_WORKLOADS,
    OUT,
    ROOT,
    SETUP_REPEATS,
    SRC,
    WORKLOADS,
    child_env,
    declared_metrics,
    load_reference,
)

#: Seconds a batch child may take before the run is abandoned.
CHILD_TIMEOUT = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _spawn(name: str, args, setup_only: bool) -> dict:
    cmd = [
        sys.executable, "-m", "perf.workloads", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    for flag, on in (("--trace", args.trace), ("--smoke", args.smoke), ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {CHILD_TIMEOUT:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args) -> dict:
    """Raw samples of one workload (see :mod:`perf.workloads`)."""
    if name in BATCH_WORKLOADS:
        setups = []
        if not args.trace:
            setups = [_spawn(name, args, True)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        raw = _spawn(name, args, False)
        raw["setup_samples"] = setups + [raw["setup_s"]]
        return raw
    from perf.tenants import run

    reference = load_reference(name, args.seed, args.smoke)
    return run(args.seed, args.seconds, bool(args.trace), args.smoke, reference)


def end_to_end(raw: dict) -> dict[str, float]:
    """The end-to-end metrics from one workload's raw samples.

    An operation is a job, a grid pass or a query; its latency runs from
    when it was due to its complete result, its ttfr to its first one.
    Both are medians (for a grid pass, summed over its parts).
    """
    latency_s = raw["latency_s"]
    return {
        "setup_s": float(np.median(raw["setup_samples"])),
        "tuples_per_s": raw.get("tuples_per_s") or raw["tuples_per_op"] / latency_s,
        "latency_p50_ms": 1000 * latency_s,
        "ttfr_p50_ms": 1000 * raw["ttfr_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _print_row(workload: str, name: str, value, unit: str) -> None:
    print(f"{workload:<13} {name:<28} {value:>16.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default 20, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size (for the tests)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 20.0

    if not (SRC / "repro").is_dir():
        print(f"perf: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    declared = declared_metrics(bool(args.trace))
    workloads = args.workload or list(WORKLOADS)

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in workloads:
        try:
            raw = run_workload(name, args)
        except (RuntimeError, OSError) as exc:  # includes BenchmarkError, timeouts
            print(f"perf: {name} could not run: {exc}", file=sys.stderr)
            return 2
        if not args.trace and not raw["walls"]:
            print(f"perf: {name} completed no operation: {raw['failures']}", file=sys.stderr)
            return 2
        (OUT / f"{name}{'.trace' if args.trace else ''}.raw.json").write_text(
            json.dumps(raw, indent=1) + "\n"
        )
        values = raw["layers"] if args.trace else end_to_end(raw)
        missing = sorted(set(declared) - set(values))
        if missing:
            print(f"perf: {name} did not measure {missing}", file=sys.stderr)
            return 2
        attempted += raw["attempted"]
        failed += raw["failed"]
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric, unit in declared.items():
            _print_row(name, metric, values[metric], unit)
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        extra = {} if args.trace else {"ops": [len(raw["walls"]), "count"]}
        extra.update(raw.get("extra", {}))
        extra["failed_frac"] = [raw["failed"] / max(1, raw["attempted"]), "ratio"]
        for metric, (value, unit) in extra.items():
            _print_row(name, metric, value, unit)
        for failure in raw["failures"]:
            print(f"{name}: FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0
