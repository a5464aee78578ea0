"""Mid-run operator morphing: switch join strategy while streaming.

Different non-blocking joins win in different regimes: symmetric hash
is unbeatable while both relations fit in memory and arrivals are
fast (no flush machinery, every result in memory), but HMJ's hashing
phase tolerates memory pressure and its merging phase turns blocked
time into results.  When the regime changes mid-run — arrival rates
collapse, memory tightens — the best *static* choice loses to a
switch.

:class:`MorphingJoin` makes the switch safe: it delegates the whole
streaming-join protocol to an *active* operator, and on
:meth:`~MorphingJoin.morph` drains the active operator's resident hash
state through :meth:`~repro.joins.base.StreamingJoinOperator.
export_hash_state` and re-builds it in the target via
``import_hash_state`` — insert-only, because every match among the
exported tuples was already emitted on arrival.  The result multiset
is therefore exactly what the target strategy running from the start
would produce (a property test pins this).

The decision of *when* to morph lives elsewhere: the
:class:`~repro.sim.broker.MorphController` polls an
:class:`~repro.core.advisor.OnlineAdvisor` from a scheduler timer and
calls :meth:`morph` when the advisor recommends it, then re-grants
memory through the broker's normal ``resize_memory`` path.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ProtocolError
from repro.core.columnar import ColumnBatch
from repro.joins.base import StreamingJoinOperator
from repro.sim.budget import WorkBudget
from repro.storage.tuples import Tuple


class MorphingJoin(StreamingJoinOperator):
    """Delegating wrapper that can swap its join strategy mid-run.

    Args:
        initial: The operator handling arrivals until a morph (must
            support ``export_hash_state`` for the morph to succeed).
        target_factory: Builds the (unbound) morph-target operator when
            the switch happens; it must implement ``import_hash_state``.
    """

    supports_memory_resize = True

    def __init__(
        self,
        initial: StreamingJoinOperator,
        target_factory: Callable[[], StreamingJoinOperator],
    ) -> None:
        self._initial = initial
        self._target_factory = target_factory
        self._active = initial
        self._peak_carry = 0
        self._pending_grant: int | None = None
        #: Cumulative arrivals delivered (what the advisor's rate is
        #: computed from).
        self.tuples_seen = 0
        self.morphed = False
        super().__init__()
        self.name = f"morph[{initial.name}]"

    @property
    def active(self) -> StreamingJoinOperator:
        """The operator currently handling the protocol."""
        return self._active

    def _setup(self) -> None:
        self._initial.bind(self.runtime)

    # -- morphing ------------------------------------------------------

    def morph(self) -> bool:
        """Switch to the target strategy, migrating resident state.

        Asks the active operator to export its resident hash state; a
        ``None`` export means the handover is currently impossible
        (e.g. XJoin with flushed partitions) and the morph is declined
        without side effects.  Otherwise the target is built, bound to
        the same runtime, and fed the exported tuples insert-only.
        Returns whether the switch happened.  A second morph on an
        already-morphed wrapper is rejected.
        """
        if self.morphed:
            raise ProtocolError(f"{self.name} already morphed")
        exported = self._active.export_hash_state()
        if exported is None:
            self.log_event("morph-declined", active=self._active.name)
            return False
        old = self._active
        if old.peak_imbalance > self._peak_carry:
            self._peak_carry = old.peak_imbalance
        target = self._target_factory()
        target.bind(self.runtime)
        target.import_hash_state(exported)
        self._active = target
        self.morphed = True
        self.name = f"morph[{old.name}->{target.name}]"
        if self._pending_grant is not None and target.supports_memory_resize:
            target.resize_memory(self._pending_grant)
            self._pending_grant = None
        self.log_event(
            "morph",
            source=old.name,
            target=target.name,
            migrated=len(exported),
        )
        return True

    # -- delegated protocol --------------------------------------------

    def on_tuple(self, t: Tuple) -> None:
        self.tuples_seen += 1
        self._active.on_tuple(t)

    def on_column_batch(self, batch: ColumnBatch) -> None:
        self.tuples_seen += len(batch)
        self._active.on_column_batch(batch)

    def has_background_work(self) -> bool:
        return self._active.has_background_work()

    def on_blocked(self, budget: WorkBudget) -> None:
        self._active.on_blocked(budget)

    def finish(self, budget: WorkBudget) -> None:
        self._active.finish(budget)
        self.mark_finished()

    def memory_usage(self) -> tuple[int, int] | None:
        return self._active.memory_usage()

    def spilled_unmerged(self) -> bool:
        return self._active.spilled_unmerged()

    def export_hash_state(self) -> list[Tuple] | None:
        return self._active.export_hash_state()

    def resize_memory(self, new_capacity: int) -> None:
        """Forward a grant; stash it if the active side cannot resize.

        A stashed grant is applied at morph time — the usual case when
        the initial operator is a budget-less symmetric hash join and
        the broker's grant is meant for the HMJ it becomes.
        """
        if self._active.supports_memory_resize:
            self._active.resize_memory(new_capacity)
        else:
            self._pending_grant = new_capacity

    # The base class initialises ``peak_imbalance = 0`` through this
    # setter; reads must see the live active operator's peak combined
    # with what pre-morph operators reached.

    @property
    def peak_imbalance(self) -> int:  # type: ignore[override]
        return max(self._peak_carry, self._active.peak_imbalance)

    @peak_imbalance.setter
    def peak_imbalance(self, value: int) -> None:
        self._peak_carry = value

    def __repr__(self) -> str:
        return f"MorphingJoin(active={self._active!r}, morphed={self.morphed})"
