"""Tests for the tuned-line condition solvers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
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
        # n*v fits for n = 3 (1.5e308) and overflows to inf for n = 4
        assert tuned_lengths(Frequency(1.0), 5e307, 3)[-1].value == 7.5e307
        with pytest.raises(ValueError, match="out of float range"):
            tuned_lengths(Frequency(1.0), 5e307, 4)


class TestTuningFrequencies:
    def test_500_km_harmonics(self):
        sols = tuning_frequencies(500.0, V, 3)
        assert [s.value for s in sols] == pytest.approx([300.0, 600.0, 900.0], rel=1e-12)

    def test_300_km_harmonics(self):
        sols = tuning_frequencies(300.0, V, 2)
        assert [s.value for s in sols] == pytest.approx([500.0, 1000.0], rel=1e-12)

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
        assert tuning_frequencies(1.0, 5e307, 3)[-1].value == 7.5e307
        with pytest.raises(ValueError, match="out of float range"):
            tuning_frequencies(1.0, 5e307, 4)


class TestIsTuned:
    def test_tuned_pair(self):
        tuned, nearest = is_tuned(500.0, Frequency(300.0), V, 1e-6)
        assert tuned
        assert nearest.n == 1
        assert nearest.value == pytest.approx(300.0, rel=1e-12)

    def test_quarter_wave_is_maximally_detuned(self):
        tuned, nearest = is_tuned(500.0, Frequency(150.0), V, 1e-3)
        assert not tuned
        assert nearest.value == pytest.approx(300.0, rel=1e-12)

    def test_second_harmonic(self):
        tuned, nearest = is_tuned(300.0, Frequency(1000.0), V, 1e-6)
        assert tuned
        assert nearest.n == 2

    def test_rejects_out_of_range_tolerance(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                is_tuned(500.0, Frequency(300.0), V, bad)

    def test_rejects_harmonic_index_out_of_float_range(self):
        # 2*f*l/v = 2 * 1.5e307 * 500 / 1e155 overflows: round(inf) has no integer
        with pytest.raises(ValueError, match="out of float range"):
            is_tuned(500.0, Frequency(1.5e307), 1e155)


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
