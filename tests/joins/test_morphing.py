"""Tests for mid-run operator morphing.

The headline property: a run that starts as one strategy and morphs to
another mid-stream produces exactly the result multiset the *target*
strategy would produce from the start (which itself equals the
blocking-oracle multiset).  The migration is insert-only — every match
among migrated tuples was already emitted — so HMJ's duplicate
suppression must keep holding across the handover; the group-atomic
import (whole key-groups secured or spilled together) is what these
tests pin down.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.advisor import OnlineAdvisor
from repro.core.config import HMJConfig
from repro.core.flushing import FlushColdestPolicy
from repro.core.hmj import HashMergeJoin
from repro.errors import ConfigurationError, ProtocolError
from repro.joins.blocking import hash_join
from repro.joins.morphing import MorphingJoin
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.sim.broker import MorphController
from repro.sim.engine import run_join
from repro.storage.tuples import result_multiset
from repro.workloads.generator import WorkloadSpec, make_relation_pair


def shj_to_hmj(memory=60):
    return MorphingJoin(
        SymmetricHashJoin(),
        lambda: HashMergeJoin(HMJConfig(memory_capacity=memory)),
    )


def run_morphing(
    op,
    controller,
    n=300,
    seed=17,
    rate=200.0,
    key_range=None,
):
    spec = WorkloadSpec(
        n_a=n, n_b=n, key_range=key_range or n, seed=seed
    )
    rel_a, rel_b = make_relation_pair(spec)
    src_a = NetworkSource(rel_a, ConstantRate(rate), seed=1)
    src_b = NetworkSource(rel_b, ConstantRate(rate), seed=2)
    result = run_join(src_a, src_b, op, broker=controller)
    return result, rel_a, rel_b


def oracle(rel_a, rel_b):
    return result_multiset(hash_join(rel_a, rel_b))


# -- the wrapper by itself ----------------------------------------------------


def test_morphing_join_delegates_until_morph():
    op = shj_to_hmj()
    assert op.name == "morph[SHJ]"
    assert op.active is op._initial
    assert not op.morphed
    assert op.supports_memory_resize


def test_double_morph_raises():
    result, rel_a, rel_b = run_morphing(
        shj_to_hmj(),
        MorphController(OnlineAdvisor(rate_threshold=1e9), interval=0.2),
    )
    op_multiset = result_multiset(result.results)
    assert op_multiset == oracle(rel_a, rel_b)


def test_morph_mid_run_matches_target_from_start():
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1e9), interval=0.3
    )
    op = shj_to_hmj(memory=60)
    result, rel_a, rel_b = run_morphing(op, controller)
    assert op.morphed
    assert op.name == "morph[SHJ->HMJ]"
    assert controller.morph_log and controller.morph_log[0][1] is True
    # The morphed run, the target-from-start run, and the blocking
    # oracle all agree on the result multiset.
    spec = WorkloadSpec(n_a=300, n_b=300, key_range=300, seed=17)
    ra, rb = make_relation_pair(spec)
    pure = run_join(
        NetworkSource(ra, ConstantRate(200.0), seed=1),
        NetworkSource(rb, ConstantRate(200.0), seed=2),
        HashMergeJoin(HMJConfig(memory_capacity=60)),
    )
    expected = oracle(rel_a, rel_b)
    assert result_multiset(result.results) == expected
    assert result_multiset(pure.results) == expected


def test_morph_to_skew_adaptive_target():
    config = HMJConfig(
        memory_capacity=48,
        policy=FlushColdestPolicy(),
        hot_split_factor=4,
    )
    op = MorphingJoin(SymmetricHashJoin(), lambda: HashMergeJoin(config))
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1e9), interval=0.25
    )
    result, rel_a, rel_b = run_morphing(op, controller, key_range=40)
    assert op.morphed
    assert result_multiset(result.results) == oracle(rel_a, rel_b)


def test_xjoin_declines_morph_after_flushing():
    # A tiny budget forces XJoin to flush before the first poll; its
    # export then returns None and the morph must be declined without
    # corrupting the run.
    op = MorphingJoin(
        XJoin(memory_capacity=16),
        lambda: HashMergeJoin(HMJConfig(memory_capacity=16)),
    )
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1e9, min_observations=1), interval=0.4
    )
    result, rel_a, rel_b = run_morphing(op, controller, n=600)
    assert not op.morphed
    assert controller.morph_log and controller.morph_log[0][1] is False
    assert result_multiset(result.results) == oracle(rel_a, rel_b)


def test_morph_on_morphed_wrapper_raises():
    op = shj_to_hmj()
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1e9), interval=0.3
    )
    run_morphing(op, controller)
    assert op.morphed
    with pytest.raises(ProtocolError, match="already morphed"):
        op.morph()


def test_pending_grant_applied_at_morph():
    # SHJ cannot resize; a grant arriving pre-morph must be stashed and
    # land on the freshly built HMJ.
    op = shj_to_hmj(memory=60)
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1e9),
        interval=0.3,
        grant_total=128,
    )
    run_morphing(op, controller)
    assert op.morphed
    usage = op.active.memory_usage()
    assert usage is not None
    assert usage[1] == 128


def test_controller_validation():
    with pytest.raises(ConfigurationError):
        MorphController(OnlineAdvisor(rate_threshold=1.0), interval=0.0)
    controller = MorphController(OnlineAdvisor(rate_threshold=1.0), interval=1.0)
    with pytest.raises(ConfigurationError, match="not morphable"):
        controller.bind(SymmetricHashJoin())


def test_fast_stream_never_morphs():
    op = shj_to_hmj()
    controller = MorphController(
        OnlineAdvisor(rate_threshold=1.0), interval=0.3
    )
    result, rel_a, rel_b = run_morphing(op, controller)
    assert not op.morphed
    assert controller.morph_log == []
    assert result_multiset(result.results) == oracle(rel_a, rel_b)


# -- the headline property ----------------------------------------------------


@given(
    seed=st.integers(0, 2**16),
    memory=st.sampled_from([24, 48, 96]),
    interval=st.sampled_from([0.2, 0.45, 0.8]),
)
def test_property_morphed_run_equals_target_from_start(seed, memory, interval):
    spec = WorkloadSpec(n_a=160, n_b=160, key_range=120, seed=seed)
    rel_a, rel_b = make_relation_pair(spec)

    def sources():
        return (
            NetworkSource(rel_a, ConstantRate(150.0), seed=1),
            NetworkSource(rel_b, ConstantRate(150.0), seed=2),
        )

    src_a, src_b = sources()
    morphed = run_join(
        src_a,
        src_b,
        MorphingJoin(
            SymmetricHashJoin(),
            lambda: HashMergeJoin(HMJConfig(memory_capacity=memory)),
        ),
        broker=MorphController(
            OnlineAdvisor(rate_threshold=1e9), interval=interval
        ),
    )
    src_a, src_b = sources()
    from_start = run_join(
        src_a, src_b, HashMergeJoin(HMJConfig(memory_capacity=memory))
    )
    assert result_multiset(morphed.results) == result_multiset(
        from_start.results
    )
