"""The scalar run merge: the reference oracle of the kernel's extraction.

:class:`~repro.sim.scheduler.EventScheduler` extracts every batch run
with a windowed array merge; this module keeps the direct per-element
k-way merge solely as the reference it is checked against.  Both must
cut every run at the identical element.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.scheduler import EventScheduler


def scalar_run(
    schedules: Sequence[tuple[Sequence[float], int, int]],
    threshold: float,
    bound_time: float,
    bound_index: int,
) -> tuple[list[int], list[float]]:
    """Merge ``(times, cursor, stream index)`` schedules into one run.

    Members come in registration order; events are taken in heap order
    ``(time, index)`` until a gap wider than ``threshold`` or an event
    losing the heap race against ``(bound_time, bound_index)``.
    """
    cursors = [[times, pos, index] for times, pos, index in schedules if pos < len(times)]
    order: list[int] = []
    out: list[float] = []
    prev = 0.0
    while cursors:
        # k-way min by (time, index); cursors stay in registration
        # order, so the strict < keeps the lower index on ties.
        best = cursors[0]
        best_t = best[0][best[1]]
        for cursor in cursors[1:]:
            t = cursor[0][cursor[1]]
            if t < best_t:
                best, best_t = cursor, t
        if order and (
            best_t > prev + threshold
            or best_t > bound_time
            or (best_t == bound_time and best[2] >= bound_index)
        ):
            break
        order.append(best[2])
        out.append(best_t)
        prev = best_t
        best[1] += 1
        if best[1] == len(best[0]):
            cursors.remove(best)
    return order, out


class ScalarRunScheduler(EventScheduler):
    """An event kernel whose batch runs come from :func:`scalar_run`."""

    __slots__ = ()

    def _extract_run(
        self, bound_time: float, bound_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        schedules = []
        for member, times in self._run_streams:
            arr, pos = times()
            schedules.append((arr.tolist(), pos, member.index))
        order, out = scalar_run(
            schedules, self.blocking_threshold, bound_time, bound_index
        )
        return np.asarray(order, dtype=np.int64), np.asarray(out, dtype=np.float64)
