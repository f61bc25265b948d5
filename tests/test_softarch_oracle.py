"""The columnar SoftArch builders against the per-event reference loop.

:mod:`repro.core.softarch` builds a timeline as float64 columns. The
reference below is the original implementation it replaced: one
:class:`OutputEvent` per segment and per enumerated repetition, folded
one event at a time. Hypothesis generates piecewise and nested hazards
covering zero-rate segments, hazards below the Taylor switch
(``x < 1e-5``) and past ``expm1`` overflow (``x > 700``),
``until``-truncated tails, and repetition counts on both sides of
``_ENUMERATION_LIMIT``. The columns must equal the reference events bit
for bit, the folds must give the same bits, and both sides must raise
the same errors.

A transcendental evaluated with NumPy's SIMD routines instead of
:mod:`math` differs from libm in the last bit for a share of arguments
on some hosts; this suite is the one that catches it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.softarch import (
    _ENUMERATION_LIMIT,
    OutputEvent,
    SoftArchTimeline,
    _EventColumns,
    _events_from_nested,
    _events_from_piecewise,
    _truncated_exp_mean_fraction,
    timeline_from_intensity,
)
from repro.errors import EstimationError
from repro.reliability.hazard import NestedHazard, PiecewiseHazard

# ---------------------------------------------------------------------------
# Reference: the per-event implementation.
# ---------------------------------------------------------------------------


def ref_mean_fraction(x: float) -> float:
    if x < 1e-5:
        return 0.5 - x / 12.0 + x**3 / 720.0
    if x > 700.0:
        return 1.0 / x
    return 1.0 / x - 1.0 / math.expm1(x)


def ref_segment_event(start, end, rate):
    d = end - start
    if d <= 0 or rate <= 0:
        return None
    x = rate * d
    prob = -math.expm1(-x)
    if prob <= 0.0:
        return None
    mean_local = d * ref_mean_fraction(x)
    return OutputEvent(
        time=end, probability=prob, mean_time=start + mean_local
    )


def ref_events_from_piecewise(hazard, offset=0.0, until=None):
    events = []
    bp = hazard.breakpoints
    rates = hazard.rates
    for j in range(rates.size):
        t0 = float(bp[j])
        t1 = float(bp[j + 1])
        if until is not None:
            if t0 >= until:
                break
            t1 = min(t1, until)
        event = ref_segment_event(offset + t0, offset + t1, float(rates[j]))
        if event is not None:
            events.append(event)
    return events


def ref_fold(events):
    survival = 1.0
    weighted = 0.0
    q = 0.0
    for e in events:
        p_here = survival * e.probability
        weighted += p_here * e.mean_time
        q += p_here
        survival *= 1.0 - e.probability
    return q, weighted


def ref_aggregate_blocks(block_events, block_period, repetitions, offset):
    q_b, weighted = ref_fold(block_events)
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


def ref_events_from_nested(hazard):
    events = []
    offset = 0.0
    for duration, inner in hazard.segments:
        ratio = duration / inner.period
        full = int(math.floor(ratio + 1e-9))
        tail = duration - full * inner.period
        if tail < 0:
            tail = 0.0
        block = ref_events_from_piecewise(inner)
        if full > 0 and block:
            if full <= _ENUMERATION_LIMIT:
                for k in range(full):
                    shift = offset + k * inner.period
                    events.extend(
                        OutputEvent(
                            time=shift + e.time,
                            probability=e.probability,
                            mean_time=shift + e.mean_time,
                        )
                        for e in block
                    )
            else:
                aggregate = ref_aggregate_blocks(
                    block, inner.period, full, offset
                )
                if aggregate is not None:
                    events.append(aggregate)
        if tail > 1e-12 * inner.period:
            shift = offset + full * inner.period
            events.extend(
                OutputEvent(
                    time=shift + e.time,
                    probability=e.probability,
                    mean_time=shift + e.mean_time,
                )
                for e in ref_events_from_piecewise(inner, until=tail)
            )
        offset += duration
    return events


def ref_timeline(hazard):
    if isinstance(hazard, PiecewiseHazard):
        events = ref_events_from_piecewise(hazard)
    else:
        events = ref_events_from_nested(hazard)
    return ref_timeline_values(events, hazard.period)


def ref_timeline_values(events, period):
    """``(event rows, mttf, q)`` of the per-event timeline."""
    if period <= 0:
        raise EstimationError(f"period must be positive, got {period}")
    events = sorted(events, key=lambda e: e.time)
    for event in events:
        if event.time > period * (1 + 1e-9):
            raise EstimationError(
                f"event at {event.time} outside iteration of {period}"
            )
    q, weighted = ref_fold(events)
    mttf = math.inf if q <= 0.0 else weighted / q + period * (1.0 - q) / q
    log_survival = 0.0
    for event in events:
        if event.probability >= 1.0:
            log_survival = None
            break
        log_survival += math.log1p(-event.probability)
    q_iter = 1.0 if log_survival is None else -math.expm1(log_survival)
    return _rows(events), float.hex(mttf), float.hex(q_iter)


# ---------------------------------------------------------------------------
# Comparison helpers.
# ---------------------------------------------------------------------------


def _rows(events) -> tuple:
    """Bit patterns of every event field, in order."""
    table = np.array(
        [(e.time, e.probability, e.mean_time) for e in events], dtype=float
    ).reshape(-1, 3)
    return tuple(table.T.copy().view(np.int64).ravel().tolist())


def _column_rows(columns: _EventColumns) -> tuple:
    return tuple(np.stack(columns).view(np.int64).ravel().tolist())


def outcome(build, rows):
    """``build()``'s rows, or the error it raised.

    Besides ``EstimationError`` the aggregate's ``sum_k`` form divides by
    ``q_b**2``, which underflows to zero for tiny block probabilities;
    both sides must then fail the same way.
    """
    try:
        return rows(build())
    except (EstimationError, ArithmeticError) as exc:
        return ("raises", type(exc).__name__, str(exc))


def timeline_values(timeline):
    return (
        _rows(timeline.events),
        float.hex(timeline.mttf()),
        float.hex(timeline.iteration_failure_probability()),
    )


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

#: Rates spanning hazards ``x = rate·d`` from underflow to far past 700.
rates = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.floats(min_value=-12.0, max_value=6.0).map(lambda e: 10.0**e),
)
durations = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def piecewise_hazards(draw, max_segments=6):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    segments = draw(
        st.lists(st.tuples(durations, rates), min_size=n, max_size=n)
    )
    return PiecewiseHazard.from_segments(segments)


@st.composite
def cut_points(draw, hazard):
    """An ``until``: a breakpoint, or anywhere inside the period."""
    bp = hazard.breakpoints
    if draw(st.booleans()):
        return float(bp[draw(st.integers(1, bp.size - 1))])
    return hazard.period * draw(st.floats(min_value=1e-6, max_value=1.0))


REPETITIONS = (
    0, 1, 2, 7,
    _ENUMERATION_LIMIT - 1, _ENUMERATION_LIMIT, _ENUMERATION_LIMIT + 1,
    5_000, 10**6, 10**9, 3 * 10**12,
)


@st.composite
def nested_hazards(draw):
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        inner = draw(piecewise_hazards(max_segments=3))
        reps = draw(st.sampled_from(REPETITIONS))
        frac = draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.999))
        )
        if reps == 0 and frac == 0.0:
            frac = 0.5
        segments.append(((reps + frac) * inner.period, inner))
    return NestedHazard(segments)


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------


class TestColumnsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(piecewise_hazards())
    def test_piecewise_events(self, hazard):
        assert _column_rows(_events_from_piecewise(hazard)) == _rows(
            ref_events_from_piecewise(hazard)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_piecewise_until(self, data):
        hazard = data.draw(piecewise_hazards())
        until = data.draw(cut_points(hazard))
        assert _column_rows(_events_from_piecewise(hazard, until=until)) == (
            _rows(ref_events_from_piecewise(hazard, until=until))
        )

    @settings(max_examples=120, deadline=None)
    @given(nested_hazards())
    def test_nested_events(self, hazard):
        assert outcome(lambda: _events_from_nested(hazard), _column_rows) == (
            outcome(lambda: ref_events_from_nested(hazard), _rows)
        )

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(piecewise_hazards(), nested_hazards()))
    def test_timeline_fold(self, hazard):
        got = outcome(
            lambda: timeline_from_intensity(hazard), timeline_values
        )
        expected = outcome(lambda: ref_timeline(hazard), lambda v: v)
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=2e-5),
                st.floats(min_value=1e-6, max_value=1e3),
                st.floats(min_value=690.0, max_value=1e308),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_mean_fraction_columns(self, xs):
        got = _truncated_exp_mean_fraction(np.array(xs))
        expected = [ref_mean_fraction(x) for x in xs]
        assert got.tolist() == expected
        assert [_truncated_exp_mean_fraction(x) for x in xs] == expected


class TestTimelineOrder:
    def test_equal_times_keep_input_order(self):
        # Value-graph events often share a cycle; the fold's result
        # depends on their order, which must be the stable sort's.
        rng = np.random.default_rng(7)
        times = rng.integers(0, 5, size=300).astype(float) + 1.0
        events = [
            OutputEvent(t, p, t - 0.5)
            for t, p in zip(times, rng.uniform(0.0, 0.3, size=300))
        ]
        assert timeline_values(SoftArchTimeline(events, 10.0)) == (
            ref_timeline_values(events, 10.0)
        )


class TestChecksMatchOutputEvent:
    """Vectorised checks raise what constructing each event raises."""

    ROWS = [
        (1.0, 0.5, 0.5),
        (2.0, 0.5, 2.5),  # mean after the event
        (-1.0, 0.5, -2.0),  # negative time
        (3.0, 1.5, 1.0),  # probability above one
        (4.0, float("nan"), 1.0),  # NaN probability
    ]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (0, 3, 1), (0, 2, 1),
                                       (4, 0), (3, 2), (1, 3)])
    def test_first_bad_row_decides(self, order):
        rows = [self.ROWS[i] for i in order]
        with pytest.raises(EstimationError) as expected:
            for row in rows:
                OutputEvent(*row)
        columns = _EventColumns(*(np.array(c) for c in zip(*rows)))
        with pytest.raises(EstimationError) as got:
            columns.checked()
        assert str(got.value) == str(expected.value)

    def test_mean_tolerance_edge(self):
        time = 1e6
        ok = time * (1 + 1e-9)
        columns = _EventColumns(
            np.array([time]), np.array([0.1]), np.array([ok])
        )
        columns.checked()
        OutputEvent(time, 0.1, ok)
        bad = np.nextafter(ok, math.inf)
        with pytest.raises(EstimationError):
            OutputEvent(time, 0.1, bad)
        with pytest.raises(EstimationError):
            _EventColumns(
                np.array([time]), np.array([0.1]), np.array([bad])
            ).checked()

    def test_replicated_events_checked(self):
        # A block event within tolerance of its own time; shifting it
        # keeps the check in force on every copy.
        block = _EventColumns(
            np.array([1.0]), np.array([0.1]), np.array([1.0 + 5e-10])
        ).checked()
        shifted = block.shifted(np.array([0.0, 1.0, 2.0]))
        assert shifted.time.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(EstimationError, match="conditional mean"):
            _EventColumns(
                np.array([1.0]), np.array([0.1]), np.array([1.0 + 5e-9])
            ).shifted(np.array([0.0]))

    def test_period_message(self):
        events = [
            OutputEvent(time=12.5, probability=0.1, mean_time=12.0),
            OutputEvent(time=11.0, probability=0.1, mean_time=10.0),
        ]
        with pytest.raises(EstimationError) as got:
            SoftArchTimeline(events, 10.0)
        with pytest.raises(EstimationError) as expected:
            ref_timeline_values(events, 10.0)
        assert str(got.value) == str(expected.value)
