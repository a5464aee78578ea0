"""Arrival processes: when does the next tuple reach the join?

Every process produces a sequence of *interarrival gaps* (seconds of
virtual time between consecutive tuples).  The paper's two network
regimes map to:

* fast and reliable (Section 6.2) — :class:`ConstantRate`, optionally
  with different rates per source (Figure 12 uses a 5x rate skew);
* slow and bursty (Section 6.3) — :class:`ParetoArrival`, the
  heavy-tailed distribution the paper cites from Crovella et al. [5],
  whose long silences are what trigger the blocking threshold ``T``.

:class:`PoissonArrival`, :class:`BurstyArrival` (an ON/OFF model with
Pareto silences) and :class:`TraceArrival` round out the substrate for
experiments beyond the paper.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


class ArrivalProcess(abc.ABC):
    """Generates interarrival gaps for a source's tuples."""

    @abc.abstractmethod
    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` non-negative interarrival gaps (seconds)."""

    def arrival_times(
        self, n: int, rng: np.random.Generator, start: float = 0.0
    ) -> np.ndarray:
        """Absolute arrival instants for ``n`` tuples beginning at ``start``."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=float)
        return start + np.cumsum(self.gaps(n, rng))

    @staticmethod
    def _check_positive(name: str, value: float) -> None:
        if not value > 0:  # NaN too
            raise ConfigurationError(f"{name} must be > 0, got {value!r}")


class ConstantRate(ArrivalProcess):
    """Perfectly regular arrivals at ``rate`` tuples per second.

    Models the paper's fast-and-reliable network: no gap ever exceeds a
    sensible blocking threshold, so the sources never block.
    """

    def __init__(self, rate: float) -> None:
        self._check_positive("rate", rate)
        self.rate = float(rate)

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, 1.0 / self.rate)

    def __repr__(self) -> str:
        return f"ConstantRate(rate={self.rate})"


class PoissonArrival(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    def __init__(self, rate: float) -> None:
        self._check_positive("rate", rate)
        self.rate = float(rate)

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=1.0 / self.rate, size=n)

    def __repr__(self) -> str:
        return f"PoissonArrival(rate={self.rate})"


class ParetoArrival(ArrivalProcess):
    """Heavy-tailed gaps: Pareto(shape) scaled to a target mean rate.

    This is the slow-and-bursty model of Section 6.3.  ``shape`` must
    exceed 1 so the mean gap is finite; smaller shapes give heavier
    tails (longer blocked silences at the same average rate).

    The gap is ``x_m * (1 + P)`` where ``P ~ numpy`` Pareto(shape), i.e.
    a classical Pareto variate with minimum ``x_m`` chosen so that the
    mean gap equals ``1/rate``:  ``x_m = (shape - 1) / (shape * rate)``.
    """

    def __init__(self, rate: float, shape: float = 1.5) -> None:
        self._check_positive("rate", rate)
        if not shape > 1.0:
            raise ConfigurationError(
                f"Pareto shape must be > 1 for a finite mean gap, got {shape!r}"
            )
        self.rate = float(rate)
        self.shape = float(shape)
        self.scale = (self.shape - 1.0) / (self.shape * self.rate)

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.scale * (1.0 + rng.pareto(self.shape, size=n))

    def __repr__(self) -> str:
        return f"ParetoArrival(rate={self.rate}, shape={self.shape})"


class BurstyArrival(ArrivalProcess):
    """ON/OFF bursts: fast back-to-back batches separated by Pareto silences.

    During an ON period, ``burst_size`` tuples arrive with tiny
    ``intra_gap`` spacing; OFF periods are Pareto-distributed with mean
    ``mean_silence``.  This exaggerates the stepwise phase switching of
    Figure 14 and is used by the burstiness ablation benches.
    """

    def __init__(
        self,
        burst_size: int,
        intra_gap: float,
        mean_silence: float,
        shape: float = 1.5,
    ) -> None:
        if burst_size < 1:
            raise ConfigurationError(f"burst_size must be >= 1, got {burst_size}")
        self._check_positive("intra_gap", intra_gap)
        self._check_positive("mean_silence", mean_silence)
        if not shape > 1.0:
            raise ConfigurationError(
                f"Pareto shape must be > 1 for a finite mean silence, got {shape!r}"
            )
        self.burst_size = int(burst_size)
        self.intra_gap = float(intra_gap)
        self.mean_silence = float(mean_silence)
        self.shape = float(shape)
        self._silence_scale = (shape - 1.0) / shape * mean_silence

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.full(n, self.intra_gap)
        # The first tuple of each burst (except the very first tuple)
        # waits out a heavy-tailed silence instead of the intra gap.
        burst_starts = np.arange(self.burst_size, n, self.burst_size)
        if burst_starts.size:
            silences = self._silence_scale * (
                1.0 + rng.pareto(self.shape, size=burst_starts.size)
            )
            out[burst_starts] = silences
        return out

    def __repr__(self) -> str:
        return (
            f"BurstyArrival(burst_size={self.burst_size}, "
            f"intra_gap={self.intra_gap}, mean_silence={self.mean_silence})"
        )


class TraceArrival(ArrivalProcess):
    """Replay explicit interarrival gaps (reproducible network traces)."""

    def __init__(self, gaps: Sequence[float]) -> None:
        arr = np.asarray(list(gaps), dtype=float)
        if arr.size and float(arr.min()) < 0:
            raise ConfigurationError("trace gaps must be non-negative")
        self._gaps = arr

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n > self._gaps.size:
            raise ConfigurationError(
                f"trace holds {self._gaps.size} gaps but {n} were requested"
            )
        return self._gaps[:n].copy()

    def __repr__(self) -> str:
        return f"TraceArrival(n={self._gaps.size})"


class ScheduleArrival(ArrivalProcess):
    """Replay explicit *absolute* arrival instants, bit-exactly.

    :class:`TraceArrival` round-trips gaps, but reconstructing absolute
    instants from gaps re-accumulates floating-point error: ``cumsum``
    of exact differences need not reproduce the original instants bit
    for bit.  When a replay must be byte-identical to the run that
    produced the schedule — trace round-trip tests, the in-order twin
    of a disordered source — the absolute instants themselves are the
    trace.  The instants must be non-negative and non-decreasing.
    """

    def __init__(self, times: Sequence[float]) -> None:
        arr = np.asarray(list(times), dtype=float)
        if arr.size:
            if float(arr.min()) < 0:
                raise ConfigurationError("schedule instants must be non-negative")
            if np.any(np.diff(arr) < 0):
                raise ConfigurationError("schedule instants must be non-decreasing")
        self._times = arr

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n > self._times.size:
            raise ConfigurationError(
                f"schedule holds {self._times.size} instants but {n} were requested"
            )
        return np.diff(np.concatenate([[0.0], self._times[:n]]))

    def arrival_times(
        self, n: int, rng: np.random.Generator, start: float = 0.0
    ) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if n > self._times.size:
            raise ConfigurationError(
                f"schedule holds {self._times.size} instants but {n} were requested"
            )
        if start != 0.0:
            raise ConfigurationError(
                "ScheduleArrival replays absolute instants; start must be 0.0"
            )
        return self._times[:n].copy()

    def __repr__(self) -> str:
        return f"ScheduleArrival(n={self._times.size})"


class BoundedDisorder:
    """A seeded bounded-disorder model for out-of-order arrivals.

    Each tuple's *event time* (the instant the in-order schedule
    assigns it) is jittered by a seeded uniform draw in ``[-slack,
    +slack]`` to produce its *physical arrival time* — the instant the
    tuple actually reaches the network tap, possibly out of event
    order.  ``bound`` is the watermark bound ``B >= slack``: a reorder
    buffer that releases tuple ``i`` at punctuation deadline ``e_i +
    B`` is guaranteed to hold the tuple by then (``p_i <= e_i + slack
    <= e_i + B``), so downstream operators observe event order with a
    fixed latency of ``B``.
    """

    def __init__(self, slack: float, seed: int = 0, bound: float | None = None) -> None:
        if slack <= 0:
            raise ConfigurationError(f"slack must be > 0, got {slack!r}")
        self.slack = float(slack)
        self.bound = self.slack if bound is None else float(bound)
        if self.bound < self.slack:
            raise ConfigurationError(
                f"watermark bound {self.bound!r} must be >= slack {self.slack!r}"
            )
        self.seed = int(seed)

    def jitter(self, n: int) -> np.ndarray:
        """The ``n`` seeded jitter draws, in event order."""
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-self.slack, self.slack, size=n)

    def perturb(self, event_times: np.ndarray) -> np.ndarray:
        """Physical arrival instants for the given event schedule.

        Jittered instants are clipped at zero (nothing arrives before
        the simulation starts); clipping never violates the bound,
        which only caps *lateness* (``p_i - e_i <= slack``).
        """
        arr = np.asarray(event_times, dtype=float)
        return np.maximum(arr + self.jitter(arr.size), 0.0)

    def __repr__(self) -> str:
        return (
            f"BoundedDisorder(slack={self.slack}, seed={self.seed}, "
            f"bound={self.bound})"
        )
