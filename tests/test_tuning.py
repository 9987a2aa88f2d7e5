"""Tests for the tuned-line condition solvers."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunedline import (
    DEFAULT_VELOCITY_KM_S,
    Frequency,
    abcd_exact,
    default_line,
    is_tuned,
    tuned_lengths,
    tuning_frequencies,
)
from tunedline.tuning import _scaled_ratio

V = DEFAULT_VELOCITY_KM_S


class TestTunedLengths:
    def test_power_frequency_lengths(self):
        sols = tuned_lengths(Frequency(50.0), V, 3)
        assert [s.n for s in sols] == [1, 2, 3]
        assert [s.value for s in sols] == pytest.approx([3000.0, 6000.0, 9000.0], rel=1e-12)

    def test_single_harmonic_at_300_hz(self):
        sols = tuned_lengths(Frequency(300.0), V, 1)
        assert len(sols) == 1
        assert sols[0].value == pytest.approx(500.0, rel=1e-12)

    def test_doubling_frequency_halves_lengths(self):
        base = tuned_lengths(Frequency(73.0), V, 4)
        doubled = tuned_lengths(Frequency(146.0), V, 4)
        for s, d in zip(base, doubled):
            assert d.value == pytest.approx(s.value / 2.0, rel=1e-12)

    def test_rejects_zero_n_max(self):
        with pytest.raises(ValueError):
            tuned_lengths(Frequency(50.0), V, 0)

    def test_rejects_lengths_out_of_float_range(self):
        with pytest.raises(ValueError, match=r"frequency 1e-310 Hz is out of float range"):
            tuned_lengths(Frequency(1e-310), V, 3)
        # n*v/(2f) fits for n = 7 (1.75e308), although n*v overflows from
        # n = 4 on, and leaves the float range for n = 8
        assert tuned_lengths(Frequency(1.0), 5e307, 4)[-1].value == 1e308
        assert tuned_lengths(Frequency(1.0), 5e307, 7)[-1].value == 1.75e308
        with pytest.raises(ValueError, match="out of float range"):
            tuned_lengths(Frequency(1.0), 5e307, 8)


class TestTuningFrequencies:
    def test_3000_km_gives_power_frequency(self):
        sols = tuning_frequencies(3000.0, V, 1)
        assert sols[0].value == pytest.approx(50.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tuning_frequencies(0.0, V, 1)
        with pytest.raises(ValueError):
            tuning_frequencies(-500.0, V, 1)
        with pytest.raises(ValueError):
            tuning_frequencies(500.0, V, 0)
        with pytest.raises(ValueError):
            tuning_frequencies(500.0, 0.0, 1)

    def test_rejects_frequencies_out_of_float_range(self):
        with pytest.raises(ValueError, match=r"length 1e-310 km is out of float range"):
            tuning_frequencies(1e-310, V, 3)
        # as for tuned_lengths: n*v overflows from n = 4 on, n*v/(2l) from n = 8
        assert tuning_frequencies(1.0, 5e307, 7)[-1].value == 1.75e308
        with pytest.raises(ValueError, match="out of float range"):
            tuning_frequencies(1.0, 5e307, 8)


class TestIsTuned:
    def test_tuned_pair(self):
        tuned, nearest = is_tuned(500.0, Frequency(300.0), V)
        assert tuned
        assert nearest.n == 1
        assert nearest.value == pytest.approx(300.0, rel=1e-12)

    def test_quarter_wave_is_maximally_detuned(self):
        tuned, nearest = is_tuned(500.0, Frequency(150.0), V)
        assert not tuned
        assert nearest.value == pytest.approx(300.0, rel=1e-12)

    def test_second_harmonic(self):
        tuned, nearest = is_tuned(300.0, Frequency(1000.0), V)
        assert tuned
        assert nearest.n == 2

    def test_rejects_harmonic_index_out_of_float_range(self):
        # 2*f*l/v = 2 * 1.5e307 * 500 / 1e-5 = 1.5e315: round(inf) has no integer
        with pytest.raises(ValueError, match="out of float range"):
            is_tuned(500.0, Frequency(1.5e307), 1e-5)

    def test_finite_harmonic_index_whose_product_overflows(self):
        # 2*f*l = 1.5e310 overflows, but 2*f*l/v = 1.5e155 is an integer float
        tuned, nearest = is_tuned(500.0, Frequency(1.5e307), 1e155)
        assert tuned
        assert nearest.n == pytest.approx(1.5e155, rel=1e-15)
        assert nearest.value == pytest.approx(1.5e307, rel=1e-15)


# --- randomized properties -------------------------------------------------

velocities = st.floats(min_value=1e4, max_value=1e6)


@given(f=st.floats(min_value=1.0, max_value=5000.0), v=velocities)
@settings(max_examples=300)
def test_property_length_frequency_round_trip(f, v):
    length = tuned_lengths(Frequency(f), v, 1)[0].value
    back = tuning_frequencies(length, v, 1)[0].value
    assert back == pytest.approx(f, rel=1e-12)


@given(
    length=st.floats(min_value=10.0, max_value=10000.0),
    v=velocities,
    n_max=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=300)
def test_property_solutions_strictly_increase(length, v, n_max):
    freqs = tuning_frequencies(length, v, n_max)
    lens = tuned_lengths(Frequency(v / (2.0 * length)), v, n_max)
    for sols in (freqs, lens):
        assert [s.n for s in sols] == list(range(1, n_max + 1))
        values = [s.value for s in sols]
        assert all(a < b for a, b in zip(values, values[1:]))


positive_floats = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@given(a=positive_floats, b=positive_floats, c=positive_floats, e=st.sampled_from([-1, 1]))
@example(a=1.5e307, b=500.0, c=1e155, e=1)  # 2*f*l overflows; 2*f*l/v = 1.5e155
@example(a=1.5e307, b=1e-300, c=1e155, e=1)  # l/v underflows; 2*f*l/v = 3e-148
@example(a=4.0, b=5e307, c=1.0, e=-1)  # n*v overflows; n*v/(2x) = 1e308
@settings(max_examples=500)
def test_property_scaled_ratio_has_no_intermediate_overflow_or_underflow(a, b, c, e):
    # the ratio behind the harmonic index 2*f*l/v and the harmonics n*v/(2x)
    exact = Fraction(2) ** e * Fraction(a) * Fraction(b) / Fraction(c)
    got = _scaled_ratio(a, b, c, e)
    if exact > 2 * Fraction(sys.float_info.max):
        assert got == math.inf
    elif sys.float_info.min <= exact <= Fraction(sys.float_info.max) / 2:
        # two roundings: of the mantissa product and of the quotient
        assert got == pytest.approx(float(exact), rel=5e-16)


@pytest.mark.parametrize("length", [500.0, 300.0])
def test_consistency_with_line_model(length):
    # every returned tuning frequency turns the default line into a
    # signed identity two-port
    line = default_line()
    for sol in tuning_frequencies(length, V, 3):
        tp = abcd_exact(line, length, Frequency(sol.value))
        sign = (-1.0) ** sol.n
        assert abs(tp.a - sign) < 1e-9
        assert abs(tp.d - sign) < 1e-9
        assert abs(tp.b) < 1e-9
        assert abs(tp.c) < 1e-9
