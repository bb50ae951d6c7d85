"""Relative-speed ceiling, stream intervals, and the busy-window rule."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from streamgate.clock import (
    StreamClock,
    Worker,
    constant_c,
    relative_adaptation_speed,
)


def ceil_div_oracle(interval: float, elapsed: float) -> int:
    """Independent integer-arithmetic ceiling of the exact rational ratio."""
    fi, fe = Fraction(interval), Fraction(elapsed)
    num = fe.numerator * fi.denominator
    den = fe.denominator * fi.numerator
    return max(-(-num // den), 1)


@pytest.mark.parametrize(
    "interval,elapsed,expected",
    [
        (1.0, 1.0, 1),    # method exactly as fast as the stream
        (1.0, 2.0, 2),    # half-speed method skips every other batch
        (1.0, 3.5, 4),
        (2.0, 3.5, 2),    # scaled interval
        (1.0, 0.001, 1),  # faster than the stream still counts one tick
    ],
)
def test_relative_adaptation_speed_examples(interval, elapsed, expected):
    assert relative_adaptation_speed(interval, elapsed) == expected


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "interval,elapsed",
    [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        # Non-finite: an infinite interval would otherwise pass the one-tick fast path.
        (INF, 1.0), (1.0, INF), (NAN, 1.0), (1.0, NAN), (-INF, 1.0), (1.0, -INF),
    ],
)
def test_relative_adaptation_speed_rejects_nonpositive(interval, elapsed):
    with pytest.raises(ValueError):
        relative_adaptation_speed(interval, elapsed)


@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
def test_ceiling_matches_integer_oracle(interval, elapsed):
    assert relative_adaptation_speed(interval, elapsed) == ceil_div_oracle(interval, elapsed)


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
def test_ceiling_exact_on_integer_ratios(k, q):
    # elapsed = k*q, interval = q: the ratio is exactly k, never k+1.
    assert relative_adaptation_speed(float(q), float(k) * q) == k


@pytest.mark.parametrize(
    "rate,eta,expected",
    [(1.0, 1.0, 1.0), (1.0, 1 / 16, 16.0), (4.0, 0.5, 0.5)],
)
def test_effective_stream_interval(rate, eta, expected):
    assert StreamClock(rate, eta).effective_interval == pytest.approx(expected)


def test_slow_stream_restores_full_adaptation():
    interval = StreamClock(1.0, 0.25).effective_interval
    assert interval == 4.0
    assert relative_adaptation_speed(interval, 3.5) == 1


@pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
def test_effective_stream_interval_rejects_bad_eta(eta):
    with pytest.raises(ValueError):
        StreamClock(1.0, eta).effective_interval


@pytest.mark.parametrize(
    "interval,lo,hi,expected",
    [
        (1.0, 3.0, 3.0, 3),
        (1.0, 2.5, 3.0, 3),     # a range closed at a tick boundary
        (1.0, 2.5, 3.5, None),  # a range across one
        (4.0, 0.5, 4.0, 1),
        (3.0, 1.0, 3.0000000000000004, None),
    ],
)
def test_constant_c(interval, lo, hi, expected):
    assert constant_c(interval, lo, hi) == expected


@given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.01, max_value=100))
def test_constant_c_is_the_c_of_every_cost_in_range(a, b, u, interval):
    lo, hi = min(a, b), max(a, b)
    c = constant_c(interval, lo, hi)
    if c is not None:
        assert relative_adaptation_speed(interval, min(max(lo + u * (hi - lo), lo), hi)) == c


def test_schedule_decision_boundaries():
    worker = Worker()
    assert worker.free(0)
    assert worker.occupy(0, 1.0, 3.0) == 3  # busy over [0, 3)
    assert not worker.free(1)
    assert not worker.free(2)
    assert worker.free(3)  # busy window is half-open


def test_stream_clock_interval_identity():
    clock = StreamClock(base_rate=2.0, eta=0.5)
    assert clock.effective_interval == 1.0
    assert StreamClock().effective_interval == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(base_rate=0.0), dict(eta=0.0), dict(eta=1.2),
        # Each would give a NaN, zero or infinite interval.
        dict(base_rate=NAN), dict(base_rate=INF), dict(base_rate=1e-320),
    ],
)
def test_stream_clock_validation(kwargs):
    with pytest.raises(ValueError):
        StreamClock(**kwargs)
