"""Join operators: the HMJ baselines and reference (oracle) joins.

Implemented from scratch per the paper's Section 2 taxonomy:

* :class:`~repro.joins.symmetric_hash.SymmetricHashJoin` — the
  in-memory pipelined hash join of Wilschut & Apers [23, 24];
* :class:`~repro.joins.xjoin.XJoin` — Urhan & Franklin's three-stage
  reactively scheduled join [20, 21], with timestamp-based duplicate
  prevention;
* :class:`~repro.joins.pmj.ProgressiveMergeJoin` — Dittrich et al.'s
  sort-based non-blocking join [7, 8];
* :class:`~repro.joins.dphj.DoublePipelinedHashJoin` — Ives et al.'s
  DPHJ [13] (related-work extension);
* :class:`~repro.joins.ripple.RippleJoin` — Haas & Hellerstein's
  nested-loop ripple join with its online join-size estimator [10, 14];
* :mod:`~repro.joins.blocking` — classical blocking joins used as
  correctness oracles.

SHJ, XJoin and DPHJ share one hashing step with HMJ:
:class:`~repro.joins.base.SymmetricHashStage`.  The Hash-Merge Join
itself lives in :mod:`repro.core`.
"""

from repro.joins.base import JoinRuntime, StreamingJoinOperator, SymmetricHashStage
from repro.joins.blocking import (
    grace_hash_join,
    hash_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.joins.dphj import DoublePipelinedHashJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.ripple import RippleJoin
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.joins.xjoin import XJoin, XJoinStaticMemory

__all__ = [
    "DoublePipelinedHashJoin",
    "JoinRuntime",
    "ProgressiveMergeJoin",
    "RippleJoin",
    "StreamingJoinOperator",
    "SymmetricHashJoin",
    "SymmetricHashStage",
    "XJoin",
    "XJoinStaticMemory",
    "grace_hash_join",
    "hash_join",
    "nested_loop_join",
    "sort_merge_join",
]
