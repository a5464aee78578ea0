"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.arrival import (
    BurstyArrival,
    ConstantRate,
    ParetoArrival,
    PoissonArrival,
    TraceArrival,
)


def rng():
    return np.random.default_rng(42)


def test_constant_rate_gaps_are_uniform():
    gaps = ConstantRate(rate=4.0).gaps(5, rng())
    assert np.allclose(gaps, 0.25)


def test_constant_rate_validation():
    with pytest.raises(ConfigurationError):
        ConstantRate(rate=0.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConstantRate(rate=NAN),
        lambda: PoissonArrival(rate=NAN),
        lambda: ParetoArrival(rate=NAN),
        lambda: ParetoArrival(rate=1.0, shape=NAN),
        lambda: BurstyArrival(burst_size=2, intra_gap=NAN, mean_silence=1.0),
        lambda: BurstyArrival(burst_size=2, intra_gap=0.1, mean_silence=NAN),
        lambda: BurstyArrival(burst_size=2, intra_gap=0.1, mean_silence=1.0, shape=NAN),
    ],
    ids=[
        "constant-rate", "poisson-rate", "pareto-rate", "pareto-shape",
        "bursty-intra_gap", "bursty-mean_silence", "bursty-shape",
    ],
)
def test_nan_parameters_rejected(make):
    # NaN compares false both ways: a `value <= 0` check would let it
    # through as an infinitely fast (or silently broken) source.
    with pytest.raises(ConfigurationError):
        make()


def test_arrival_times_are_cumulative():
    times = ConstantRate(rate=2.0).arrival_times(3, rng())
    assert np.allclose(times, [0.5, 1.0, 1.5])


def test_arrival_times_respect_start_offset():
    times = ConstantRate(rate=1.0).arrival_times(2, rng(), start=10.0)
    assert np.allclose(times, [11.0, 12.0])


def test_arrival_times_zero_n():
    assert ConstantRate(rate=1.0).arrival_times(0, rng()).size == 0


def test_arrival_times_negative_n_rejected():
    with pytest.raises(ConfigurationError):
        ConstantRate(rate=1.0).arrival_times(-1, rng())


def test_poisson_mean_gap_matches_rate():
    gaps = PoissonArrival(rate=100.0).gaps(20_000, rng())
    assert gaps.mean() == pytest.approx(0.01, rel=0.05)
    assert (gaps >= 0).all()


def test_poisson_validation():
    with pytest.raises(ConfigurationError):
        PoissonArrival(rate=-1.0)


def test_pareto_mean_gap_matches_rate():
    gaps = ParetoArrival(rate=100.0, shape=2.5).gaps(200_000, rng())
    assert gaps.mean() == pytest.approx(0.01, rel=0.05)


def test_pareto_minimum_gap_is_scale():
    proc = ParetoArrival(rate=100.0, shape=1.5)
    gaps = proc.gaps(10_000, rng())
    assert gaps.min() >= proc.scale


def test_pareto_is_heavier_tailed_than_poisson():
    # Same mean rate; the Pareto's largest gap dwarfs the Poisson's.
    p_gaps = ParetoArrival(rate=100.0, shape=1.1).gaps(50_000, rng())
    e_gaps = PoissonArrival(rate=100.0).gaps(50_000, rng())
    assert p_gaps.max() > 10 * e_gaps.max()


def test_pareto_shape_must_exceed_one():
    with pytest.raises(ConfigurationError):
        ParetoArrival(rate=1.0, shape=1.0)


def test_bursty_structure_intra_and_silence():
    proc = BurstyArrival(burst_size=3, intra_gap=0.001, mean_silence=1.0)
    gaps = proc.gaps(9, rng())
    # Positions 3 and 6 start new bursts: long silences.
    assert gaps[3] > 0.01 and gaps[6] > 0.01
    mask = np.ones(9, dtype=bool)
    mask[[3, 6]] = False
    assert np.allclose(gaps[mask], 0.001)


def test_bursty_mean_silence_close_to_target():
    proc = BurstyArrival(burst_size=2, intra_gap=0.0001, mean_silence=0.5, shape=2.5)
    gaps = proc.gaps(100_000, rng())
    silences = gaps[2::2]
    assert silences.mean() == pytest.approx(0.5, rel=0.1)


def test_bursty_validation():
    with pytest.raises(ConfigurationError):
        BurstyArrival(burst_size=0, intra_gap=0.1, mean_silence=1.0)
    with pytest.raises(ConfigurationError):
        BurstyArrival(burst_size=2, intra_gap=0.0, mean_silence=1.0)
    with pytest.raises(ConfigurationError):
        BurstyArrival(burst_size=2, intra_gap=0.1, mean_silence=1.0, shape=0.9)


def test_trace_replays_exact_gaps():
    proc = TraceArrival([0.1, 0.2, 0.3])
    assert np.allclose(proc.gaps(2, rng()), [0.1, 0.2])


def test_trace_too_short_rejected():
    proc = TraceArrival([0.1])
    with pytest.raises(ConfigurationError):
        proc.gaps(2, rng())


def test_trace_negative_gap_rejected():
    with pytest.raises(ConfigurationError):
        TraceArrival([0.1, -0.1])


def test_gaps_deterministic_under_same_seed():
    a = ParetoArrival(rate=10.0).gaps(100, np.random.default_rng(7))
    b = ParetoArrival(rate=10.0).gaps(100, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_reprs_are_informative():
    assert "rate" in repr(ConstantRate(1.0))
    assert "shape" in repr(ParetoArrival(1.0))
    assert "burst" in repr(BurstyArrival(2, 0.1, 1.0))
    assert "n=" in repr(TraceArrival([0.1]))
