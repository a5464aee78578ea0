"""Global memory governance across running operators.

The per-operator ``resize_memory`` hooks (HMJ flushes victim pairs,
XJoin flushes largest buckets, PMJ forces an early sort/join/flush)
adapt one operator to one new budget — but nothing in the seed ever
*drove* them.  The :class:`ResourceBroker` closes that loop: it owns a
single global memory grant, splits it across every bound operator, and
uses the kernel's timed events to re-grant mid-run.  This is what the
adaptive stream-join literature (PanJoin's partition re-allocation,
the robust dynamic hybrid hash join's memory-adaptive operators) calls
a memory broker, and it turns the paper's static Figure 13 sweep into
a dynamic experiment: one run can live through a shrink *and* the
recovery.

Shares use a weighted largest-remainder split with a per-operator
floor (operators reject budgets below 2 tuples), so the grant total is
honoured exactly whenever it is feasible.

Correctness is unaffected by any schedule: shrinking only forces
spills, which the operators' disk-side phases merge like any other,
and the integration suite asserts result-multiset equality against the
blocking oracle under adversarial schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.joins.base import StreamingJoinOperator
    from repro.sim.scheduler import EventScheduler


@dataclass(frozen=True, slots=True)
class MemoryGrant:
    """One scheduled change of the global memory total.

    Attributes:
        time: Absolute virtual time the grant takes effect.
        total: New global budget, in tuples, split across operators.
    """

    time: float
    total: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"grant time must be >= 0, got {self.time!r}")
        if self.total < MIN_OPERATOR_SHARE:
            raise ConfigurationError(
                f"grant total must be >= {MIN_OPERATOR_SHARE}, got {self.total!r}"
            )


#: Smallest budget any operator accepts (``resize_memory`` floors).
MIN_OPERATOR_SHARE = 2


def largest_remainder_split(spare: int, weights: Sequence[float]) -> list[int]:
    """Split ``spare`` integer units proportionally to ``weights``.

    The remainder-distribution rule, exactly:

    1. each participant's exact share is ``spare * w_i / sum(w)``;
    2. every participant first receives the *truncation* of its exact
       share (``int()``, i.e. rounding toward zero — shares are
       non-negative, so this is the floor);
    3. the leftover units (``spare`` minus the truncated total, always
       ``0 <= leftover < len(weights)``) go one each to the
       participants with the **largest fractional parts**, breaking
       fractional-part ties in favour of the **earliest-bound**
       participant.

    The result therefore always sums to exactly ``spare``, every share
    is within one unit of its exact proportional value, and the split
    is deterministic in binding order.  Weights must be finite and
    strictly positive.
    """
    if spare < 0:
        raise ConfigurationError(f"cannot split a negative total {spare!r}")
    for w in weights:
        if not math.isfinite(w) or w <= 0:
            raise ConfigurationError(
                f"weights must be finite and > 0, got {w!r}"
            )
    weight_sum = sum(weights)
    exact = [spare * w / weight_sum for w in weights]
    base = [int(x) for x in exact]
    leftover = spare - sum(base)
    # Largest fractional part first; ties go to earlier participants.
    order = sorted(range(len(weights)), key=lambda i: (base[i] - exact[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def bounded_shares(
    total: int,
    requests: Sequence[int],
    weights: Sequence[float],
    floor: int = MIN_OPERATOR_SHARE,
) -> list[int]:
    """Split ``total`` by weight, flooring and capping each share.

    The multi-tenant variant of :func:`largest_remainder_split`: every
    participant receives at least ``floor`` and **never more than its
    ``request``** (a query granted more memory than it asked for would
    behave differently from its solo run, breaking per-tenant
    determinism).  Surplus beyond the sum of requests stays
    unallocated.  Infeasible totals (``total < floor * n``) raise
    :class:`~repro.errors.ConfigurationError`.

    Allocation is iterative water-filling: run a weighted
    largest-remainder split over the still-uncapped participants,
    cap any share at its request, and redistribute the freed units
    until no cap is newly hit.  Deterministic in participant order.
    """
    n = len(requests)
    if n != len(weights):
        raise ConfigurationError(
            f"{n} requests but {len(weights)} weights"
        )
    if n == 0:
        return []
    for request in requests:
        if request < floor:
            raise ConfigurationError(
                f"request {request} is below the floor of {floor}"
            )
    if total < floor * n:
        raise ConfigurationError(
            f"grant total {total} cannot cover {n} participants at the "
            f"minimum share of {floor}"
        )
    shares = [floor] * n
    spare = min(total, sum(requests)) - floor * n
    open_idx = [i for i in range(n) if requests[i] > floor]
    while spare > 0 and open_idx:
        split = largest_remainder_split(spare, [weights[i] for i in open_idx])
        spare = 0
        still_open: list[int] = []
        for i, extra in zip(open_idx, split):
            room = requests[i] - shares[i]
            take = min(extra, room)
            shares[i] += take
            spare += extra - take
            if shares[i] < requests[i]:
                still_open.append(i)
        # spare > 0 implies some participant hit its cap, so open_idx
        # strictly shrinks and the loop terminates.
        open_idx = still_open
    return shares


@dataclass(slots=True)
class _Binding:
    operator: "StreamingJoinOperator"
    weight: float
    label: str


class ResourceBroker:
    """Owns a global memory grant and drives ``resize_memory`` on it.

    Usage::

        broker = ResourceBroker([(0.5, 50), (1.5, 400)])
        run_join(src_a, src_b, operator, broker=broker)

    The simulations bind their resizable operators and install the
    schedule as kernel timers; each grant splits the new total across
    the bound operators (by weight, largest-remainder) and applies it
    via ``resize_memory``.  Grants scheduled after the last arrival
    never fire — the cleanup phase runs in one protocol call, so there
    is nothing left to adapt.
    """

    def __init__(
        self, schedule: Iterable["MemoryGrant | tuple[float, int]"] = ()
    ) -> None:
        grants = [
            g if isinstance(g, MemoryGrant) else MemoryGrant(time=g[0], total=g[1])
            for g in schedule
        ]
        self._schedule = sorted(grants, key=lambda g: g.time)
        self._bindings: list[_Binding] = []
        self._applied: list[MemoryGrant] = []
        self._installed = False

    # -- wiring -------------------------------------------------------------

    def bind(
        self,
        operator: "StreamingJoinOperator",
        weight: float = 1.0,
        label: str | None = None,
    ) -> None:
        """Put one operator's memory under this broker's control."""
        if not operator.supports_memory_resize:
            raise ConfigurationError(
                f"{operator.name} does not support runtime memory adaptation"
            )
        if not math.isfinite(weight) or weight <= 0:
            raise ConfigurationError(
                f"binding weight must be finite and > 0, got {weight!r}"
            )
        self._bindings.append(
            _Binding(operator=operator, weight=weight, label=label or operator.name)
        )

    def install(self, scheduler: "EventScheduler") -> None:
        """Register every scheduled grant as a kernel timer."""
        if self._installed:
            raise ConfigurationError("broker is already installed on a scheduler")
        if not self._bindings:
            raise ConfigurationError(
                "broker has no bound operators; bind at least one resizable "
                "operator before installing"
            )
        self._installed = True
        for grant in self._schedule:
            scheduler.call_at(
                grant.time, lambda g=grant: self._fire(g, scheduler.journal)
            )

    # -- grant arithmetic ---------------------------------------------------

    def shares(self, total: int) -> list[int]:
        """Split ``total`` across the bound operators.

        Every operator gets the floor of :data:`MIN_OPERATOR_SHARE`;
        the remaining ``total - 2 * n`` tuples are distributed
        proportionally to the binding weights under the documented
        largest-remainder rule of :func:`largest_remainder_split`
        (truncate every exact share, then give the leftover units one
        each to the largest fractional parts, fractional ties broken
        toward the earlier binding).  The shares always sum to exactly
        ``total`` when ``total >= 2 * n``; smaller totals raise
        :class:`~repro.errors.ConfigurationError`.
        """
        n = len(self._bindings)
        if n == 0:
            raise ConfigurationError("broker has no bound operators")
        floor_total = MIN_OPERATOR_SHARE * n
        if total < floor_total:
            raise ConfigurationError(
                f"grant total {total} cannot cover {n} operators at the "
                f"minimum share of {MIN_OPERATOR_SHARE}"
            )
        split = largest_remainder_split(
            total - floor_total, [b.weight for b in self._bindings]
        )
        return [MIN_OPERATOR_SHARE + share for share in split]

    def apply(self, total: int) -> list[int]:
        """Resize every bound operator to its share of ``total`` now."""
        shares = self.shares(total)
        for binding, share in zip(self._bindings, shares):
            binding.operator.resize_memory(share)
        return shares

    def _fire(self, grant: MemoryGrant, journal) -> None:
        shares = self.apply(grant.total)
        self._applied.append(grant)
        if journal is not None:
            journal.record(
                "broker",
                "grant",
                total=grant.total,
                shares={
                    b.label: s for b, s in zip(self._bindings, shares)
                },
            )

    # -- introspection ------------------------------------------------------

    @property
    def schedule(self) -> Sequence[MemoryGrant]:
        """The time-ordered grant schedule."""
        return tuple(self._schedule)

    @property
    def applied(self) -> Sequence[MemoryGrant]:
        """Grants that actually fired, in firing order."""
        return tuple(self._applied)

    @property
    def operators(self) -> list["StreamingJoinOperator"]:
        """The bound operators, in binding order."""
        return [b.operator for b in self._bindings]


class MorphController(ResourceBroker):
    """A broker that also polls an online advisor and triggers morphs.

    The scheduler-timer participant of the morphing loop: every
    ``interval`` of virtual time it reads the bound
    :class:`~repro.joins.morphing.MorphingJoin`'s cumulative arrival
    count, feeds it to the :class:`~repro.core.advisor.OnlineAdvisor`,
    and on a morph recommendation calls ``morph()`` — then pushes the
    memory grant through the inherited :meth:`apply`/``resize_memory``
    path so the freshly built target starts under broker governance.
    Polling stops after the advisor recommends (morphing is one-way);
    timers pending when the streams end are dropped by the kernel.

    Inherits the full grant machinery, so a static grant ``schedule``
    can run alongside the polling (pre-morph grants are stashed by the
    wrapper and applied at morph time).
    """

    def __init__(
        self,
        advisor,
        interval: float,
        grant_total: int | None = None,
        schedule: Iterable["MemoryGrant | tuple[float, int]"] = (),
    ) -> None:
        super().__init__(schedule)
        if not interval > 0:
            raise ConfigurationError(
                f"poll interval must be > 0, got {interval!r}"
            )
        if grant_total is not None and grant_total < MIN_OPERATOR_SHARE:
            raise ConfigurationError(
                f"grant_total must be >= {MIN_OPERATOR_SHARE}, "
                f"got {grant_total!r}"
            )
        self._advisor = advisor
        self._interval = interval
        self._grant_total = grant_total
        #: ``(virtual_time, switched)`` per attempted morph.
        self.morph_log: list[tuple[float, bool]] = []

    @property
    def advisor(self):
        """The polled online advisor."""
        return self._advisor

    def bind(
        self,
        operator: "StreamingJoinOperator",
        weight: float = 1.0,
        label: str | None = None,
    ) -> None:
        """Bind the morphable operator (first binding is the one polled)."""
        if not self._bindings and not hasattr(operator, "morph"):
            raise ConfigurationError(
                f"{operator.name} is not morphable; wrap it in a MorphingJoin"
            )
        super().bind(operator, weight, label)

    def install(self, scheduler: "EventScheduler") -> None:
        """Register the grant schedule plus the first advisor poll."""
        super().install(scheduler)
        scheduler.call_at(self._interval, partial(self._poll, scheduler))

    def _poll(self, scheduler: "EventScheduler") -> None:
        op = self._bindings[0].operator
        now = op.clock.now
        decision = self._advisor.observe(now, op.tuples_seen)
        if not decision.morph:
            scheduler.call_at(now + self._interval, partial(self._poll, scheduler))
            return
        switched = bool(op.morph())
        self.morph_log.append((now, switched))
        if switched and self._grant_total is not None:
            self.apply(self._grant_total)
        journal = scheduler.journal
        if journal is not None:
            journal.record(
                "morph-controller",
                "morph" if switched else "morph-declined",
                rate=decision.rate,
                reason=decision.reason,
            )
