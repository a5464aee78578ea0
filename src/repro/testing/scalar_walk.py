"""The per-tuple clock walk: the reference oracle of the columnar clock.

HMJ's columnar driver (:func:`repro.core.columnar.run_columnar_batch`)
charges a whole segment's clock in one call, on arrays when the
segment is long.  This module keeps the per-tuple charge sequence it
must reproduce, written with the per-tuple primitives themselves: a
:class:`~repro.sim.clock.VirtualClock` advanced to each arrival, then
charged the tuple cost, the probe comparisons and one result cost per
emitted result, exactly as :meth:`~repro.joins.base.SymmetricHashStage.
on_tuple` and :meth:`~repro.joins.base.StreamingJoinOperator.emit`
charge them.  Both the scalar and the busy-period walk must match it
bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel


def clock_walk_oracle(
    now: float,
    ats: Sequence[float],
    cands: Sequence[int],
    mcounts: Sequence[int],
    costs: CostModel,
    skip_first: bool = False,
) -> tuple[list[float], float]:
    """Per-row clock charges of one segment, one primitive at a time.

    Row ``i`` arrives at ``ats[i]``, scans ``cands[i]`` candidates and
    emits ``mcounts[i]`` results.  ``skip_first`` marks a first row
    whose arrival and tuple cost were charged before the segment (at a
    flush boundary).  Returns every result's emission instant, in
    order, and the clock after the last row.
    """
    clock = VirtualClock(now)
    times: list[float] = []
    for i, (at, c, m) in enumerate(zip(ats, cands, mcounts)):
        if not (skip_first and i == 0):
            clock.advance_to(float(at))
            clock.advance(costs.cpu_tuple_cost)
        if c:
            clock.advance(costs.probe_time(int(c)))
        for _ in range(int(m)):
            times.append(clock.advance(costs.result_time(1)))
    return times, clock.now
