"""The Double Pipelined Hash Join of Ives et al. [13].

Section 2 positions DPHJ as the other symmetric-hash descendant: its
first stage is identical to XJoin's stage 1, but instead of XJoin's
reactive stage it defers all disk work to a second stage at the end
("pairs that are not joined together in the first phase are marked and
are joined in disk").  The paper notes it "is suitable for moderate
size data, but does not scale well for large data sizes" — with no
blocked-time processing, all disk-resident matches wait for end of
input, which the bursty-network benches make visible.

Implemented as the XJoin machinery with the reactive stage disabled
and a source-balancing flush victim (DPHJ flushes from whichever
source currently holds more memory).
"""

from __future__ import annotations

from repro.joins.xjoin import XJoin
from repro.sim.budget import WorkBudget
from repro.storage.tuples import SOURCE_A, SOURCE_B


class DoublePipelinedHashJoin(XJoin):
    """Two-stage symmetric hash join with deferred disk cleanup."""

    name = "DPHJ"
    PHASE_STAGE3 = "stage2-disk"

    def has_background_work(self) -> bool:
        """DPHJ has no reactive stage: blocked time produces nothing."""
        return False

    def on_blocked(self, budget: WorkBudget) -> None:
        """No-op — disk-resident pairs wait for the final stage."""

    def spilled_unmerged(self) -> bool:
        """Before ``finish``, every flushed bucket is deferred work.

        DPHJ reports no background work (its disk stage only runs at
        end of input), so the base signal would hide a run that ended
        without the final stage; flushed-but-unfinished is the honest
        answer.
        """
        return not self.finished and self.flush_count > 0

    def _flush(self) -> None:
        """Flush the largest bucket of the *more loaded* source.

        Keeps some balance between sources without the synchronised
        pair flushing (or the sorting) that distinguishes HMJ.
        """
        summary = self.table.summary
        source = SOURCE_A if summary.total_a >= summary.total_b else SOURCE_B
        self._flush_bucket(*self.table.largest_bucket(source))
