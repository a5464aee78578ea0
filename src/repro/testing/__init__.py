"""The conformance subsystem: correctness tooling as a library.

Three layers, importable by tests, benchmarks, and the CLI
(``python -m repro.testing.conformance``):

* :mod:`repro.testing.checks` — in-engine invariant checkers attached
  to a run via ``checks=`` on :func:`~repro.sim.engine.run_join` /
  :func:`~repro.pipeline.executor.run_plan` (pure observers; a checked
  run's numbers are identical to an unchecked one's);
* :mod:`repro.testing.oracle` — differential comparison of any
  streaming operator's output multiset against the blocking
  ``hash_join`` oracle (the paper's Theorems 1 and 2), plus the
  operator-driving helpers the test suite builds on; alongside it,
  :mod:`repro.testing.scalar_merge` keeps the per-tuple merge pass as
  the reference the production merging phase is checked against,
  :mod:`repro.testing.scalar_runs` the per-element run merge the
  kernel's array run extraction is checked against, and
  :mod:`repro.testing.scalar_walk` the per-tuple clock charges the
  columnar driver's clock walk is checked against;
* :mod:`repro.testing.metamorphic` — seeded workload rewrites
  (arrival permutation, key relabeling, stream swap, rate rescale)
  with known effect on the correct output.

See ``docs/testing.md`` for the full tour and how to add an invariant.
"""

from repro.testing.checks import InvariantChecks, Violation, arrival_map
from repro.testing.metamorphic import (
    MetamorphicWorkload,
    make_workload,
    mirror_multiset,
    permute_within_windows,
    relabel_keys,
    rescale_rate,
    run_workload,
    swap_streams,
)
from repro.testing.oracle import (
    assert_matches_oracle,
    compare_with_oracle,
    drive,
    interleave,
    make_runtime,
    oracle_multiset,
)

__all__ = [
    "InvariantChecks",
    "MetamorphicWorkload",
    "Violation",
    "arrival_map",
    "assert_matches_oracle",
    "compare_with_oracle",
    "drive",
    "interleave",
    "make_runtime",
    "make_workload",
    "mirror_multiset",
    "oracle_multiset",
    "permute_within_windows",
    "relabel_keys",
    "rescale_rate",
    "run_workload",
    "swap_streams",
]
