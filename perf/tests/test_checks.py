"""Correctness checks: oracle sizes, pinned triples, failed operations."""

import numpy as np

from perf.common import TripleChecker, join_size
from perf.workloads import build, measure
from repro.testing.oracle import oracle_multiset
from repro.workloads.generator import WorkloadSpec, make_relation_pair


def test_join_size_matches_the_blocking_join_oracle():
    rel_a, rel_b = make_relation_pair(WorkloadSpec(n_a=300, n_b=200, key_range=50, seed=3))
    expected = sum(oracle_multiset(rel_a, rel_b).values())
    assert join_size([rel_a.columns().keys, rel_b.columns().keys]) == expected


def test_join_size_counts_a_repeated_relation_once_per_appearance():
    keys = np.array([0, 0, 1])
    assert join_size([keys, keys, keys]) == 2 * 2 * 2 + 1


def test_corrupted_reference_gives_a_nonzero_failed_frac():
    workload = build("stream-1m", seed=7, smoke=True)
    workload.setup()
    corrupted = {"job": (1, 0.0, 0)}
    checker = TripleChecker(workload.expected_counts(), corrupted)
    measure(workload, seconds=0.0, trace=False, checker=checker, name="stream-1m")
    assert checker.attempted >= 4
    assert checker.failed / checker.attempted == 1.0
    assert "pinned" in checker.failures[0]


def test_early_stopped_runs_accept_an_oracle_range():
    checker = TripleChecker({"cell": (10, 40)}, {})
    assert checker.check("cell", (13, 1.0, 0))
    assert not checker.check("other", (13, 1.0, 0))
    assert not TripleChecker({"cell": (10, 40)}, {}).check("cell", (41, 1.0, 0))
    assert checker.failed == 1
