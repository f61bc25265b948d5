"""SoftArch: first-principles probabilistic MTTF (Section 5.4).

SoftArch [Li et al., DSN 2005] couples a probabilistic error model with
an architecture-level simulation: as the program executes it tracks the
probability that each architecturally visible value is erroneous —
errors are *generated* on a value while it resides in a structure
(probability ``1 - e^{-λτ}`` over residency ``τ``) and *propagate* to
derived values. When a value can affect program output, the model records
a potential-failure event with its accumulated error probability; the
expected time to first failure over the looped workload is the MTTF.

Crucially, SoftArch never assumes uniform vulnerability (the AVF step) or
exponential per-component failure times (the SOFR step). This module
implements the model's event-accumulation core:

* :class:`SoftArchTimeline` — the potential-failure events within one
  workload iteration, kept as three float64 columns (``time``,
  ``probability``, ``mean_time``) in chronological order, folded into an
  MTTF by forward survival accumulation plus a geometric continuation
  over subsequent iterations (``MTTF = m1 + L(1-q)/q``);
* :func:`softarch_mttf` — derives the events for a whole system from
  the combined failure intensity, one event per elementary interval in
  which every component's vulnerability is constant, so events never
  overlap and the fold is exact. Every segment of a piecewise intensity
  becomes an event in one array pass; nested intensities replicate an
  inner block by broadcasting, or collapse it into one aggregate event;
* the instruction-level value-graph frontend (error generation on
  register residency, propagation along data dependences, output events
  at stores/branches) lives in :mod:`repro.core.softarch_values` and
  produces the same :class:`SoftArchTimeline`.

The columns give the same bits as folding one :class:`OutputEvent` at a
time: only IEEE basic operations (``+ - * /``, comparisons, ``minimum``)
run as NumPy array operations, sums and products accumulate left to
right (``cumsum``/``cumprod``), and every transcendental (``expm1``,
``log1p``, the Taylor cube) goes through :mod:`math` element by element,
because NumPy's SIMD versions differ from libm in the last bit.

The fold is deliberately a *different code path* from the closed-form
renewal integral in :mod:`repro.core.firstprinciples`: the paper uses
SoftArch as an independent method and validates it against Monte Carlo
(<1% component, <2% system error); our tests do the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import EstimationError
from ..masking.profile import VulnerabilityProfile
from ..reliability.hazard import (
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
)
from ..reliability.metrics import MTTFEstimate
from .system import SystemModel


@dataclass(frozen=True)
class OutputEvent:
    """A potential-failure event within one workload iteration.

    Attributes
    ----------
    time:
        End of the interval this event covers (when the affected value
        reaches program output).
    probability:
        Probability that the value is erroneous — i.e. that an unmasked
        strike occurred over the covered interval.
    mean_time:
        Expected failure instant conditional on this event failing
        (strikes spread over the interval, so this lies inside it).
    """

    time: float
    probability: float
    mean_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise EstimationError(
                f"event probability must be in [0,1], got {self.probability}"
            )
        if self.time < 0:
            raise EstimationError(f"event time must be >= 0, got {self.time}")
        if self.mean_time > self.time * (1 + 1e-9):
            raise EstimationError(
                "conditional mean time cannot exceed the event time"
            )


class _EventColumns(NamedTuple):
    """Output events as parallel float64 columns."""

    time: np.ndarray
    probability: np.ndarray
    mean_time: np.ndarray

    @classmethod
    def of(cls, events) -> "_EventColumns":
        rows = [(e.time, e.probability, e.mean_time) for e in events]
        table = np.array(rows, dtype=float).reshape(len(rows), 3)
        return cls(table[:, 0], table[:, 1], table[:, 2])

    @classmethod
    def concat(cls, parts: list["_EventColumns"]) -> "_EventColumns":
        if not parts:
            return cls(*(np.empty(0) for _ in cls._fields))
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def checked(self) -> "_EventColumns":
        """Apply :class:`OutputEvent`'s checks to every row.

        The first failing row is rebuilt as an :class:`OutputEvent`, so
        it raises exactly what constructing the events one by one would.
        """
        time, prob, mean = self
        bad = ~((prob >= 0.0) & (prob <= 1.0))
        bad |= time < 0
        bad |= mean > time * (1 + 1e-9)
        if bad.any():
            row = int(np.argmax(bad))
            OutputEvent(float(time[row]), float(prob[row]), float(mean[row]))
        return self

    def shifted(self, shifts: np.ndarray) -> "_EventColumns":
        """The block repeated once per shift (shift-major), checked."""
        reps = shifts.size
        return _EventColumns(
            (shifts[:, None] + self.time[None, :]).ravel(),
            np.tile(self.probability, reps),
            (shifts[:, None] + self.mean_time[None, :]).ravel(),
        ).checked()


def _libm(function, values: np.ndarray, *args) -> np.ndarray:
    """``function(v, *args)`` on each element as a Python float.

    Keeps transcendentals on the platform libm, bit for bit; NumPy's
    SIMD ``expm1``/``log1p``/``**`` can differ in the last bit.
    """
    return np.fromiter(
        map(function, values.tolist(), *(repeat(a) for a in args)),
        dtype=float,
        count=values.size,
    )


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + …`` added left to right, like a Python loop.

    ``np.sum`` adds pairwise; ``cumsum`` accumulates in order. The
    leading ``0.0`` only matters for an all-``-0.0`` column.
    """
    return 0.0 + float(np.cumsum(values)[-1]) if values.size else 0.0


def _fold(
    probability: np.ndarray, mean_time: np.ndarray
) -> tuple[float, float]:
    """Forward survival fold over chronologically ordered events.

    ``P(first failure = event j) = p_j · Π_{i<j}(1 - p_i)``; returns the
    total failure probability ``q`` and ``Σ_j P(first = j) · m_j``.
    """
    p_here = probability.copy()
    p_here[1:] *= np.cumprod(1.0 - probability[:-1])
    return _sequential_sum(p_here), _sequential_sum(p_here * mean_time)


class SoftArchTimeline:
    """Per-iteration output-event timeline folded into an MTTF.

    Events must cover disjoint intervals (the builders below guarantee
    this); they are sorted by time, stably. The fold walks the events
    once: ``P(first failure = event j) = p_j · Π_{i<j}(1 - p_i)``, giving
    the iteration failure probability ``q`` and the conditional mean
    failure time ``m1``; independent identical iterations then give

        ``MTTF = m1 + L · (1 - q) / q``.

    ``events`` is a sequence of :class:`OutputEvent`; this module's
    builders pass checked columns instead.
    """

    def __init__(self, events: Sequence[OutputEvent], period: float):
        if period <= 0:
            raise EstimationError(f"period must be positive, got {period}")
        if not isinstance(events, _EventColumns):
            events = _EventColumns.of(events)
        order = np.argsort(events.time, kind="stable")
        self._time, self._probability, self._mean_time = (
            column[order] for column in events
        )
        outside = self._time > period * (1 + 1e-9)
        if outside.any():
            first = float(self._time[np.argmax(outside)])
            raise EstimationError(
                f"event at {first} outside iteration of {period}"
            )
        self._period = float(period)

    @property
    def period(self) -> float:
        return self._period

    @property
    def events(self) -> list[OutputEvent]:
        return [
            OutputEvent(t, p, m)
            for t, p, m in zip(
                self._time.tolist(),
                self._probability.tolist(),
                self._mean_time.tolist(),
            )
        ]

    @property
    def event_count(self) -> int:
        return self._time.size

    def iteration_failure_probability(self) -> float:
        """``q``: probability one iteration fails, by forward survival."""
        if (self._probability >= 1.0).any():
            return 1.0
        log_terms = _libm(math.log1p, -self._probability)
        return -math.expm1(_sequential_sum(log_terms))

    def mttf(self) -> float:
        """Expected time to first failure over looped iterations."""
        q, weighted_time = _fold(self._probability, self._mean_time)
        if q <= 0.0:
            return math.inf
        m1 = weighted_time / q
        return m1 + self._period * (1.0 - q) / q


# ---------------------------------------------------------------------------
# Event construction from failure intensities.
# ---------------------------------------------------------------------------


def _truncated_exp_mean_fraction(x):
    """Mean of a truncated Exp(1) on [0, 1] with total hazard ``x``.

    ``g(x) = 1/x - 1/(e^x - 1)``, evaluated stably: a Taylor series for
    small ``x`` (the direct form suffers catastrophic cancellation) and
    the ``expm1`` form otherwise. ``g`` decreases from 1/2 (uniform
    limit) towards 0 (failures concentrate at the interval start), so
    the conditional mean always lies inside the interval.

    ``x`` is a float (returns a float) or a float64 array (elementwise).
    """
    values = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(values)
    small = values < 1e-5
    large = values > 700.0  # e^x overflows; 1/(e^x - 1) is exactly 0
    middle = ~(small | large)
    s = values[small]
    g[small] = 0.5 - s / 12.0 + _libm(pow, s, 3) / 720.0
    g[large] = 1.0 / values[large]
    m = values[middle]
    g[middle] = 1.0 / m - 1.0 / _libm(math.expm1, m)
    return g if np.ndim(x) else float(g[0])


def _events_from_piecewise(
    hazard: PiecewiseHazard, until: float | None = None
) -> _EventColumns:
    """One event per positive-intensity segment of a piecewise hazard.

    Segment ``[t0, t1)`` at rate ``r`` fails with probability
    ``1 - e^{-r·d}``; conditional on a strike, its instant is
    truncated-exponential over the segment, with mean ``t0 + d·g(r·d)``
    (see :func:`_truncated_exp_mean_fraction`). ``until`` keeps the
    segments that start before it, the last one cut at ``until``.
    """
    bp = hazard.breakpoints
    t0, t1, rates = bp[:-1], bp[1:], hazard.rates
    if until is not None:
        kept = int(np.searchsorted(t0, until, side="left"))
        t0, rates = t0[:kept], rates[:kept]
        t1 = np.minimum(t1[:kept], until)
    d = t1 - t0
    live = (d > 0) & (rates > 0)
    t0, t1, d = t0[live], t1[live], d[live]
    x = rates[live] * d
    prob = -_libm(math.expm1, -x)
    fails = prob > 0.0
    t0, t1, d, x, prob = (a[fails] for a in (t0, t1, d, x, prob))
    mean = t0 + d * _truncated_exp_mean_fraction(x)
    return _EventColumns(t1, prob, mean).checked()


#: Below this repetition count, inner cycles are enumerated exactly;
#: above it, each block is folded into one aggregate event (also exact —
#: blocks are sequential and identically distributed).
_ENUMERATION_LIMIT = 1024


def _aggregate_blocks(
    block_events: Sequence[OutputEvent],
    block_period: float,
    repetitions: int,
    offset: float,
) -> OutputEvent | None:
    """Collapse ``repetitions`` identical sequential event blocks.

    Within one block: failure probability ``q_b`` and conditional mean
    ``m_b`` come from the standard fold. Across blocks the first failing
    block index is geometric, so the aggregate has

    * probability ``1 - (1 - q_b)^R``,
    * conditional mean ``offset + E[k | fail]·P_block + m_b`` with
      ``E[k | fail] = q_b·Σ_{k<R} k(1-q_b)^k / (1 - (1-q_b)^R)``.

    Exact because blocks are disjoint in time and i.i.d. ``block_events``
    is a sequence of :class:`OutputEvent` or the builders' columns.
    """
    if not isinstance(block_events, _EventColumns):
        block_events = _EventColumns.of(block_events)
    q_b, weighted = _fold(block_events.probability, block_events.mean_time)
    if q_b <= 0.0:
        return None
    m_b = weighted / q_b
    r = repetitions
    if q_b >= 1.0:
        total_q = 1.0
        mean_k = 0.0
    else:
        x = 1.0 - q_b
        total_q = -math.expm1(r * math.log1p(-q_b))
        x_pow_r = math.exp(r * math.log(x)) if x > 0 else 0.0
        # Σ_{k=0}^{r-1} k x^k = x(1 - r x^{r-1} + (r-1) x^r)/(1-x)^2
        x_pow_r_minus_1 = x_pow_r / x if x > 0 else 0.0
        sum_k = x * (1.0 - r * x_pow_r_minus_1 + (r - 1) * x_pow_r) / (
            q_b * q_b
        )
        mean_k = q_b * sum_k / total_q
    return OutputEvent(
        time=offset + r * block_period,
        probability=total_q,
        mean_time=offset + mean_k * block_period + m_b,
    )


def _events_from_nested(hazard: NestedHazard) -> _EventColumns:
    """Events for a nested hazard, aggregating massive inner repetitions."""
    parts: list[_EventColumns] = []
    offset = 0.0
    for duration, inner in hazard.segments:
        ratio = duration / inner.period
        full = int(math.floor(ratio + 1e-9))
        tail = duration - full * inner.period
        if tail < 0:
            tail = 0.0
        block = _events_from_piecewise(inner)
        if full > 0 and block.time.size:
            if full <= _ENUMERATION_LIMIT:
                shifts = offset + np.arange(full) * inner.period
                parts.append(block.shifted(shifts))
            else:
                aggregate = _aggregate_blocks(
                    block, inner.period, full, offset
                )
                if aggregate is not None:
                    parts.append(_EventColumns.of([aggregate]))
        if tail > 1e-12 * inner.period:
            shift = np.array([offset + full * inner.period])
            tail_events = _events_from_piecewise(inner, until=tail)
            parts.append(tail_events.shifted(shift))
        offset += duration
    return _EventColumns.concat(parts)


def timeline_from_intensity(intensity: CyclicIntensity) -> SoftArchTimeline:
    """Build the per-iteration event timeline for a failure intensity."""
    if isinstance(intensity, PiecewiseHazard):
        return SoftArchTimeline(
            _events_from_piecewise(intensity), intensity.period
        )
    if isinstance(intensity, NestedHazard):
        return SoftArchTimeline(
            _events_from_nested(intensity), intensity.period
        )
    raise EstimationError(
        f"SoftArch needs a piecewise or nested intensity, got "
        f"{type(intensity).__name__}"
    )


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def softarch_component_mttf(
    rate_per_second: float, profile: VulnerabilityProfile
) -> float:
    """SoftArch MTTF (seconds) for one component."""
    if rate_per_second < 0:
        raise EstimationError("raw rate must be non-negative")
    if rate_per_second == 0:
        return math.inf
    return timeline_from_intensity(profile.to_hazard(rate_per_second)).mttf()


def softarch_mttf(system: SystemModel) -> MTTFEstimate:
    """SoftArch MTTF of a series system.

    The system's combined failure intensity (components' intensities
    superposed, multiplicities included) is cut into elementary
    constant-intensity intervals; each becomes one output event. Because
    the intervals are disjoint, the forward fold is exact — this mirrors
    SoftArch's operation of accounting for *all* structures at each
    simulation step.
    """
    timeline = timeline_from_intensity(system.combined_intensity())
    return MTTFEstimate(mttf_seconds=timeline.mttf(), method="softarch")
