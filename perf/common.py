"""Paths, child-process plumbing and the statistics every workload shares."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
#: Run outputs (per-run summaries and span files); ignored by git.
OUT = PERF / "out"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE = PERF / "reference.json"

WORKLOADS = ("stream-1m", "spill-bursty", "paper-grid", "tenants")
BATCH_WORKLOADS = WORKLOADS[:3]

#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

Triple = tuple[int, float, int]


def child_env() -> dict[str, str]:
    """The environment for child processes: ``src`` and ``perf`` importable."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def sum_of_medians(samples: dict[str, list[float]]) -> float:
    """Each part's median over the operations, summed over the parts.

    An operation timed as one part gives its median.  One timed as many
    parts (a grid pass as its cells) gives a total in which a stall
    during one part moves only that part's sample.
    """
    return float(sum(np.median(values) for values in samples.values()))


def join_size(key_columns) -> int:
    """Exact size of an equi-join on one key: per key, the product of the
    relations' key counts, summed (numpy ``bincount``).  A relation that
    appears twice in a plan is passed twice."""
    size = 1 + max((int(keys.max()) for keys in key_columns if len(keys)), default=0)
    product = np.ones(size, dtype=np.int64)
    for keys in key_columns:
        product *= np.bincount(keys, minlength=size)
    return int(product.sum())


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    manifest = json.loads(MANIFEST.read_text())
    section = manifest["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def load_reference(workload: str, seed: int, smoke: bool) -> dict[str, Triple]:
    """One workload's pinned ``(count, clock, io)`` triples, if they apply.

    The reference file records the seed and scale it was captured at; a
    run at any other seed or scale gets an empty reference (the oracle
    and determinism checks still run).
    """
    data = json.loads(REFERENCE.read_text())
    if data.get("seed") != seed or bool(data.get("smoke")) != smoke:
        return {}
    pinned = data["workloads"].get(workload, {})
    return {key: tuple(triple) for key, triple in pinned.items()}


class TripleChecker:
    """Checks every operation's ``(count, clock, io)`` triples.

    Three checks per keyed triple (a job, a grid cell, a tenant spec):
    its count equals the oracle's (or lies in an oracle range ``(low,
    high)``, for runs stopped early); it equals the key's first triple
    (determinism: the warm-up's, or a tenant's solo run, seeded into
    ``first_seen``); and it equals the pinned reference triple, when one
    applies.
    """

    def __init__(self, expected_counts: dict, reference: dict[str, Triple]):
        self.expected_counts = expected_counts
        self.reference = reference
        self.first_seen: dict[str, Triple] = {}
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, key: str, triple) -> bool:
        """Check one keyed triple; False (and a recorded failure) if wrong."""
        self.attempted += 1
        triple = tuple(triple)
        expected = self.expected_counts.get(key)
        low, high = expected if isinstance(expected, tuple) else (expected, expected)
        first = self.first_seen.setdefault(key, triple)
        pinned = self.reference.get(key)
        if expected is None or not low <= triple[0] <= high:
            problem = f"{triple[0]} results, oracle says {expected}"
        elif triple != first:
            problem = f"triple {triple} differs from the first {first}"
        elif pinned is not None and triple != pinned:
            problem = f"triple {triple} != pinned {pinned}"
        else:
            return True
        self.failures.append(f"{key}: {problem}")
        return False

    def fail(self, what: str) -> None:
        """Record a failed operation that produced no triple to check."""
        self.attempted += 1
        self.failures.append(what)
