"""Compare two checkouts' ``python -m perf --smoke`` runs, in pairs.

    python tools/perf_pair.py --base DIR --head DIR [--pairs 3]

Clears every ``__pycache__`` directory under both checkouts, so both
start in the same bytecode state, then runs ``python -m perf --smoke``
once in each checkout per pair, alternating which side goes first.
Each run uses its own checkout's ``src/``.  Every pair's end-to-end
metrics (each one a median over the run's operations) are printed side
by side with how much worse the head is.

Exits 1 when a head run is not ``correct``, or when one workload's
end-to-end metric is worse than its bound in this repository's
``BENCHMARK.json`` in every pair; otherwise 0.  One slow pair is not
enough: between identical trees on a shared 2-vCPU host, ``setup_s``
alone spread by x1.27-1.43.  So at least two pairs are required.  "Worse" is measured against the base:
``(head - base) / base`` for a metric where lower is better,
``(base - head) / base`` where higher is better.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Seconds one ``perf --smoke`` run may take before it counts as failed.
RUN_TIMEOUT = 900


def load_bounds(path: Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` for the end-to-end metrics of ``path``."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def worsening(base: float, head: float, better: str) -> float | None:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``.

    Negative when the head is better; ``None`` when ``base`` is not
    positive, so no ratio can be taken.
    """
    if not base > 0:
        return None
    return (head - base if better == "lower" else base - head) / base


def _changes(pairs: list[tuple[dict | None, dict | None]], key: str, better: str):
    for base, head in pairs:
        b = (base or {}).get("metrics", {}).get(key)
        h = (head or {}).get("metrics", {}).get(key)
        yield None if b is None or h is None else worsening(b["value"], h["value"], better)


def end_to_end_keys(pairs, bounds) -> list[str]:
    """The head's metric names (``workload/metric``) that have a bound."""
    keys = {
        key
        for _, head in pairs
        for key in (head or {}).get("metrics", {})
        if key.rsplit("/", 1)[-1] in bounds
    }
    return sorted(keys)


def verdict(
    pairs: list[tuple[dict | None, dict | None]],
    bounds: dict[str, tuple[str, float]],
) -> list[str]:
    """The reasons the head fails against the base; empty when it passes.

    ``pairs`` holds one ``(base, head)`` report per pair: the last JSON
    line of ``python -m perf``, or ``None`` for a run that printed
    none.  The head fails when one of its runs is not ``correct``, or
    when a metric is worse than its bound in every pair.  A pair whose
    base run has no value for a metric cannot show a regression of it.
    """
    failures = [
        f"pair {i}: the head run is not correct"
        for i, (_, head) in enumerate(pairs, 1)
        if not (head or {}).get("correct")
    ]
    for key in end_to_end_keys(pairs, bounds):
        better, bound = bounds[key.rsplit("/", 1)[-1]]
        changes = list(_changes(pairs, key, better))
        if all(c is not None and c > bound for c in changes):
            shown = ", ".join(f"{c:+.1%}" for c in changes)
            failures.append(
                f"{key}: worse than its {bound:.0%} bound in all {len(pairs)} pairs ({shown})"
            )
    return failures


def clear_bytecode(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_perf(checkout: Path) -> dict | None:
    """One ``python -m perf --smoke`` run in ``checkout``; its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perf", "--smoke"],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"  {checkout}: timed out after {RUN_TIMEOUT} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {checkout}: exit {proc.returncode}, no report\n{proc.stderr[-2000:]}")
        return None


def print_pair(i: int, base: dict | None, head: dict | None, bounds) -> None:
    print(f"pair {i}: base correct={(base or {}).get('correct')}, "
          f"head correct={(head or {}).get('correct')}")
    print(f"  {'metric':<30} {'base':>14} {'head':>14} {'worse by':>9}")
    for key in end_to_end_keys([(base, head)], bounds):
        better = bounds[key.rsplit("/", 1)[-1]][0]
        (change,) = _changes([(base, head)], key, better)
        b = (base or {}).get("metrics", {}).get(key, {}).get("value")
        print(f"  {key:<30} {'-' if b is None else f'{b:.4f}':>14} "
              f"{head['metrics'][key]['value']:>14.4f} "
              f"{'-' if change is None else f'{change:+.1%}':>9}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--head", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--pairs", type=int, default=3, help="alternating pairs (at least 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: one pair never fails the check")
    bounds = load_bounds()
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    for checkout in sides.values():
        if not (checkout / "perf").is_dir():
            parser.error(f"{checkout} has no perf/ directory")
        clear_bytecode(checkout)

    pairs: list[tuple[dict | None, dict | None]] = []
    for i in range(1, args.pairs + 1):
        order = ["base", "head"] if i % 2 else ["head", "base"]
        reports = {side: run_perf(sides[side]) for side in order}
        pairs.append((reports["base"], reports["head"]))
        print_pair(i, reports["base"], reports["head"], bounds)

    failures = verdict(pairs, bounds)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("perf pair: " + ("FAIL" if failures else f"ok over {args.pairs} pairs"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
