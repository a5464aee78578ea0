"""Tests for the multi-tenant query session.

The headline invariant — tenants couple only through memory, so a
fair-share session with sufficient aggregate budget reproduces every
tenant's solo triple byte-for-byte — is pinned in
``tests/sim/test_determinism.py``; here we cover the scheduling
machinery itself: admission control, FIFO queueing, cancellation,
session journaling, aggregate revocation, and failure capture.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.service.broker import SharedBroker, WeightedShare
from repro.service.session import QuerySession
from repro.service.spec import QuerySpec
from repro.sim.query import QueryState
from repro.testing.oracle import oracle_multiset
from repro.storage.tuples import result_multiset
from repro.workloads.generator import make_relation_pair


def spec(i: int, n: int = 160, **kwargs) -> QuerySpec:
    return QuerySpec(query_id=f"q{i}", n=n, seed=7 + 101 * i, **kwargs)


def oracle_count(s: QuerySpec) -> int:
    rel_a, rel_b = make_relation_pair(s.workload())
    return sum(oracle_multiset(rel_a, rel_b).values())


# -- construction ------------------------------------------------------------


def test_session_argument_validation():
    with pytest.raises(ConfigurationError):
        QuerySession(max_concurrent=0)
    with pytest.raises(ConfigurationError):
        QuerySession(on_error="ignore")
    with pytest.raises(ConfigurationError):
        QuerySession(policy=WeightedShare())  # policy without memory
    with pytest.raises(ConfigurationError):
        QuerySession(memory=SharedBroker(100), policy=WeightedShare())


def test_submit_assigns_fresh_ids_on_collision():
    session = QuerySession()
    first = session.submit(spec(0).build())
    second = session.submit(spec(0).build())  # duplicate "q0"
    assert first.query_id == "q0"
    assert second.query_id != "q0"
    assert session.query(second.query_id) is second


# -- admission control --------------------------------------------------------


def test_max_concurrent_queues_fifo_and_admits_in_order():
    session = QuerySession(max_concurrent=2)
    queries = [session.submit(spec(i, n=120).build()) for i in range(4)]
    assert [q.state for q in queries[:2]] == [QueryState.RUNNING] * 2
    assert [q.state for q in queries[2:]] == [QueryState.QUEUED] * 2
    session.run()
    assert all(q.state is QueryState.DONE for q in queries)
    # The queued tenants were admitted strictly after the first two
    # concluded enough room, and in submission order.
    stats = [session.stats(q.query_id) for q in queries]
    assert stats[2].admitted_at <= stats[3].admitted_at
    assert stats[2].admitted_at > 0.0
    assert all(s.concluded_at is not None for s in stats)


def test_memory_floor_gates_admission():
    # Budget covers two tenants' floors (2 each) but not three.
    session = QuerySession(memory=5)
    queries = [session.submit(spec(i, n=120).build()) for i in range(3)]
    assert queries[2].state is QueryState.QUEUED
    assert len(session.running) == 2


def test_never_admissible_tenant_raises_protocol_error():
    session = QuerySession(memory=1)  # below even one tenant's floor
    session.submit(spec(0, n=120).build())
    with pytest.raises(ProtocolError, match="never be admitted"):
        session.run()


def test_pressure_keeps_results_correct():
    # Aggregate far below the sum of requests: shares shrink, flushes
    # trigger, but every tenant's multiset must still match its oracle.
    session = QuerySession(memory=60)
    specs = [spec(i, keep_results=True) for i in range(3)]
    queries = [session.submit(s.build()) for s in specs]
    session.run()
    for s, query in zip(specs, queries):
        assert query.state is QueryState.DONE
        rel_a, rel_b = make_relation_pair(s.workload())
        assert result_multiset(query.result.results) == oracle_multiset(
            rel_a, rel_b
        )


# -- cancellation and timeline ------------------------------------------------


def test_cancel_queued_tenant_never_runs():
    session = QuerySession(max_concurrent=1, journal=True)
    running = session.submit(spec(0, n=120).build())
    waiting = session.submit(spec(1, n=120).build())
    assert session.cancel(waiting.query_id, "changed my mind")
    assert waiting.state is QueryState.CANCELLED
    session.run()
    assert running.state is QueryState.DONE
    kinds = [e.kind for e in session.journal.entries]
    assert "query-queued" in kinds
    assert "query-cancelled" in kinds
    assert not session.cancel("nope")  # unknown id
    assert not session.cancel(waiting.query_id)  # already terminal


def test_scheduled_mid_run_cancel_is_deterministic_and_partial():
    def run_once() -> tuple:
        session = QuerySession(journal=True)
        victim = session.submit(spec(0, keep_results=True).build())
        survivor = session.submit(spec(1, keep_results=True).build())
        session.cancel_at(1.0, victim.query_id, "revoked")
        session.run()
        return victim, survivor, session

    victim, survivor, session = run_once()
    assert victim.state is QueryState.CANCELLED
    assert victim.completed is False
    assert survivor.state is QueryState.DONE
    # Partial but non-trivial output: the cancel landed mid-stream.
    assert 0 < victim.triple()[0] < survivor.triple()[0]
    kinds = [e.kind for e in session.journal.entries]
    assert "query-cancelled" in kinds
    # Deterministic: the same schedule reproduces the same triple.
    again, _, _ = run_once()
    assert again.triple() == victim.triple()


def test_memory_schedule_revokes_and_restores():
    specs = [spec(i, keep_results=True) for i in range(2)]
    aggregate = 2 * specs[0].memory_budget()
    session = QuerySession(memory=aggregate, journal=True)
    session.schedule_memory([(0.5, aggregate // 8), (1.5, aggregate)])
    queries = [session.submit(s.build()) for s in specs]
    session.run()
    grants = session.journal.of_kind("memory-grant")
    assert [g.detail["total"] for g in grants] == [aggregate // 8, aggregate]
    for s, query in zip(specs, queries):
        rel_a, rel_b = make_relation_pair(s.workload())
        assert result_multiset(query.result.results) == oracle_multiset(
            rel_a, rel_b
        )


def test_memory_schedule_requires_a_budget():
    with pytest.raises(ConfigurationError):
        QuerySession().schedule_memory([(1.0, 100)])


# -- observation --------------------------------------------------------------


def test_listener_sees_lifecycle_and_streamed_results():
    session = QuerySession()
    seen: list[tuple[str, str]] = []
    session.add_listener(lambda kind, q, detail: seen.append((kind, q.query_id)))
    query = session.submit(spec(0, n=120).build(), stream_results=True)
    session.run()
    kinds = [kind for kind, _ in seen]
    assert kinds[0] == "admitted"
    assert kinds[-1] == "done"
    assert kinds.count("result") == query.triple()[0]


def test_track_first_k_records_session_time():
    session = QuerySession(max_concurrent=1)
    first = session.submit(spec(0).build(), track_first_k=5)
    second = session.submit(spec(1).build(), track_first_k=5)
    session.run()
    t1 = session.stats(first.query_id).first_k_at
    t2 = session.stats(second.query_id).first_k_at
    assert t1 is not None and t2 is not None
    # The second tenant queued behind the first, so its first-k lands
    # later on the session timeline — queue wait is part of the metric.
    assert t2 > t1


def test_on_error_capture_keeps_session_serving():
    class _Sched:
        deliver_run = None
        stop_when = None
        next_event_time = 0.0

        def step(self):
            raise RuntimeError("boom")

    class Exploding:
        """Driver surface whose kernel raises on the first step."""

        def __init__(self):
            from repro.sim.clock import VirtualClock

            self.clock = VirtualClock()
            self.scheduler = _Sched()
            self.recorder = None
            self.journal = None

        def operators(self):
            return []

        def stop_reached(self):
            return False

        def finish_run(self):
            return True

        def build_result(self, completed):
            return None

    from repro.sim.query import Query

    session = QuerySession(on_error="capture")
    bad = session.submit(Query(Exploding(), query_id="bad"))
    good = session.submit(spec(1, n=120).build())
    session.run()
    assert bad.state is QueryState.FAILED
    assert good.state is QueryState.DONE
    assert "bad" in session.errors
    assert isinstance(session.errors["bad"], RuntimeError)


def test_sixteen_tenants_with_sufficient_memory_match_solo():
    # The acceptance scenario: 16 concurrent tenants, fair-share, an
    # aggregate covering every request — each triple must equal solo.
    specs = [spec(i, n=200) for i in range(16)]
    aggregate = sum(s.memory_budget() for s in specs)
    session = QuerySession(memory=aggregate)
    queries = [session.submit(s.build()) for s in specs]
    session.run()
    assert all(q.state is QueryState.DONE and q.completed for q in queries)
    for s, query in zip(specs, queries):
        solo = s.build()
        solo.run()
        assert query.triple() == solo.triple(), s.query_id
