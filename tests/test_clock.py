"""Relative-speed ceiling, stream intervals, and the busy-window rule."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from streamgate.clock import StreamClock, Worker, relative_adaptation_speed


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
        # Equal values of other types give the same C.
        (1, 2, 2),
        (np.float64(1.0), np.float64(2.0), 2),
        (Fraction(1), Fraction(2), 2),
        (1, 3.5, 4),
        (np.float64(1.0), Fraction(7, 2), 4),
        (Fraction(2), np.float64(3.5), 2),
        # A numpy integer has no as_integer_ratio: it raised AttributeError.
        (1.0, np.int64(3), 3),
        (np.int64(2), 3.0, 2),
        (np.float32(0.5), np.float32(1.5), 3),
        # The largest C within the float range is exact.
        (1.0, sys.float_info.max, int(sys.float_info.max)),
    ],
)
def test_relative_adaptation_speed_examples(interval, elapsed, expected):
    assert ceil_div_oracle(float(interval), float(elapsed)) == expected
    # A repeated call gives the same C.
    assert [relative_adaptation_speed(interval, elapsed) for _ in range(2)] == [expected] * 2


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "interval,elapsed",
    [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        # Non-finite: an infinite interval has no integer ratio to take the ceiling of.
        (INF, 1.0), (1.0, INF), (NAN, 1.0), (1.0, NAN), (-INF, 1.0), (1.0, -INF),
        (1, 0), (Fraction(1), Fraction(0)), (np.float64(1.0), np.float64(NAN)),
        (np.float64(INF), 1.0),
    ],
)
def test_relative_adaptation_speed_rejects_nonpositive(interval, elapsed):
    for _ in range(2):  # a repeated call is rejected too
        with pytest.raises(ValueError, match="must be positive and finite"):
            relative_adaptation_speed(interval, elapsed)


@pytest.mark.parametrize("interval,elapsed,name", [
    (1.0, True, "elapsed"), (True, 1.0, "effective_interval"),
    (1.0, False, "elapsed"), (False, 1.0, "effective_interval"), (0.5, True, "elapsed"),
    (1.0, np.True_, "elapsed"), (np.True_, 1.0, "effective_interval"),
    (1.0, np.False_, "elapsed"), (np.False_, 1.0, "effective_interval"),
])
def test_relative_adaptation_speed_rejects_a_bool_naming_it(interval, elapsed, name):
    # True would count as 1: relative_adaptation_speed(1.0, True) returned 1, and so
    # did relative_adaptation_speed(1.0, np.True_).
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "
                                         r"(np\.)?(True|False)_?$"):
        relative_adaptation_speed(interval, elapsed)


@pytest.mark.parametrize("elapsed", [np.array(0.5), np.array(1.0), np.array(2.0), "2.0", None])
def test_relative_adaptation_speed_rejects_a_value_that_is_not_a_real_number(elapsed):
    # A 0-d array within one interval counted one tick; np.array(2.0) raised a bare
    # AttributeError.
    with pytest.raises(ValueError, match=r"^elapsed must be a real number, got "):
        relative_adaptation_speed(1.0, elapsed)
    with pytest.raises(ValueError, match=r"^effective_interval must be a real number, got "):
        relative_adaptation_speed(elapsed, 1.0)


@pytest.mark.parametrize("interval,elapsed", [(1e-308, 3.0), (5e-324, 1.0), (0.5, 1.7e308)])
def test_relative_adaptation_speed_rejects_a_c_beyond_the_float_range_naming_both(
    interval, elapsed
):
    # Such a C ran, and a report's int / int mean C raised an unnamed OverflowError.
    with pytest.raises(ValueError, match="^" + re.escape(
            f"elapsed / effective_interval must not exceed the float range, got {elapsed!r} / "
            f"{interval!r}") + "$"):
        relative_adaptation_speed(interval, elapsed)


@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
# The edges of C = 1: an elapsed time equal to the interval, and the least elapsed
# time against the largest interval.
@example(interval=0.1, elapsed=0.1)
@example(interval=sys.float_info.max, elapsed=5e-324)
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


def test_schedule_decision_boundaries():
    worker = Worker()
    assert worker.busy_until == 0  # free from step 0
    assert worker.start(0, relative_adaptation_speed(1.0, 3.0)) == 3  # busy over [0, 3)
    assert worker.busy_until == 3  # steps 1 and 2 fall back; step 3 is free again


@pytest.mark.parametrize("value", [np.float32(0.3), np.float64(0.3), Fraction(3, 10)])
def test_a_real_clock_field_is_held_as_its_float(value):
    # A float32 base_rate gave a float32 interval, and a numpy or Fraction eta reached
    # the output files as written.
    clock = StreamClock(base_rate=value, eta=value)
    assert type(clock.eta) is float and type(clock.base_rate) is float
    assert clock == StreamClock(base_rate=float(value), eta=float(value))
    assert type(clock.effective_interval) is float


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
        # A bool would run as 1 and a string fail unnamed.
        dict(eta=True), dict(base_rate=True), dict(eta="1"), dict(base_rate="1"),
        dict(eta=None),
    ],
)
def test_stream_clock_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        StreamClock(**kwargs)
