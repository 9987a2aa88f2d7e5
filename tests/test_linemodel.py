"""Tests for the distributed-parameter line models."""

from __future__ import annotations

import math

import pytest
from conftest import assert_twoport_close, twoport_max_error
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tunedline import (
    RECIPROCITY_TOL,
    Frequency,
    LineParameters,
    TwoPort,
    abcd_exact,
    abcd_lossless,
    default_line,
    nominal_pi,
    pi_cascade_oracle,
    wave_quantities,
)

# Spec sheet used throughout: lossless 220 kV profile, zc = 300 ohm,
# wave velocity exactly 3.0e5 km/s.
LINE = default_line()

# Same profile with the capacitance rounded to five digits, as a line
# datasheet would quote it.
LINE_ROUNDED = LineParameters(L=1.0e-3, C=1.1111e-8)

# Same profile with series and shunt losses.
LINE_LOSSY = LineParameters(L=1.0e-3, C=1.0 / 9.0e7, r=0.03, g=5e-9)


def test_default_profile_constants():
    assert LINE.velocity == pytest.approx(3.0e5, rel=1e-15)
    assert LINE.surge_impedance == pytest.approx(300.0, rel=1e-15)
    assert LINE.is_lossless


class TestLineParameters:
    def test_rejects_nonpositive_inductance(self):
        with pytest.raises(ValueError):
            LineParameters(L=0.0, C=1e-8)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            LineParameters(L=1e-3, C=-1e-8)

    def test_rejects_negative_loss_terms(self):
        with pytest.raises(ValueError):
            LineParameters(L=1e-3, C=1e-8, r=-0.01)
        with pytest.raises(ValueError):
            LineParameters(L=1e-3, C=1e-8, g=-1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LineParameters(L=math.inf, C=1e-8)


class TestFrequency:
    def test_omega(self):
        assert Frequency(50.0).omega == pytest.approx(100.0 * math.pi, rel=1e-15)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            Frequency(0.0)
        with pytest.raises(ValueError):
            Frequency(-50.0)


class TestWaveQuantities:
    def test_lossless_reference_values(self):
        # gamma = j*w*sqrt(LC) = j*2*pi*50/3e5, zc = sqrt(L/C) = 300 ohm
        wq = wave_quantities(LINE_ROUNDED, Frequency(50.0))
        assert wq.gamma.real == 0.0
        assert wq.gamma.imag == pytest.approx(1.0472e-3, rel=1e-4)
        assert wq.zc.imag == 0.0
        assert wq.zc.real == pytest.approx(300.0, rel=1e-4)

        wq = wave_quantities(LINE, Frequency(50.0))
        assert wq.gamma.imag == pytest.approx(2.0 * math.pi * 50.0 / 3.0e5, rel=1e-12)
        assert wq.zc.real == pytest.approx(300.0, rel=1e-12)

    def test_lossless_symmetry(self):
        for f in (10.0, 50.0, 300.0, 997.3):
            wq = wave_quantities(LINE, Frequency(f))
            assert wq.gamma.real == 0.0
            assert wq.zc.imag == 0.0

    def test_lossy_against_polar_oracle(self):
        # Independent oracle: square roots of z*y and z/y evaluated in
        # polar form with real math functions, no complex arithmetic.
        params = LineParameters(L=1.0e-3, C=1.1111e-8, r=0.03)
        freq = Frequency(50.0)
        w = freq.omega
        zy = (-w * params.L * w * params.C, params.r * w * params.C)
        z_over_y_den = (w * params.C) ** 2
        z_over_y = (
            (w * params.L * w * params.C) / z_over_y_den,
            (-params.r * w * params.C) / z_over_y_den,
        )

        def polar_sqrt(re, im):
            mag = math.sqrt(math.hypot(re, im))
            half = math.atan2(im, re) / 2.0
            return mag * math.cos(half), mag * math.sin(half)

        g_re, g_im = polar_sqrt(*zy)
        zc_re, zc_im = polar_sqrt(*z_over_y)

        wq = wave_quantities(params, freq)
        assert wq.gamma.real == pytest.approx(g_re, rel=1e-12)
        assert wq.gamma.imag == pytest.approx(g_im, rel=1e-12)
        assert wq.zc.real == pytest.approx(zc_re, rel=1e-12)
        assert wq.zc.imag == pytest.approx(zc_im, rel=1e-12)

        # values frozen from the oracle above
        assert wq.gamma.real == pytest.approx(4.9942983278537724e-05, rel=1e-12)
        assert wq.gamma.imag == pytest.approx(1.0483825859788967e-03, rel=1e-12)
        assert wq.zc.real == pytest.approx(300.3424908829186, rel=1e-12)
        assert wq.zc.imag == pytest.approx(-14.307753868301987, rel=1e-12)

    def test_principal_branch(self):
        params = LineParameters(L=1.0e-3, C=1.1111e-8, r=0.1, g=1e-7)
        wq = wave_quantities(params, Frequency(60.0))
        assert wq.gamma.real >= 0.0
        assert wq.zc.real >= 0.0


class TestAbcdExact:
    def test_short_length_is_near_identity(self):
        tp = abcd_exact(LINE, 1e-12, Frequency(50.0))
        assert_twoport_close(tp, TwoPort.identity(), 1e-12)

    def test_quarter_wave_values(self):
        # 500 km at 150 Hz: electrical length pi/2
        tp = abcd_exact(LINE, 500.0, Frequency(150.0))
        assert abs(tp.a) < 1e-9
        assert abs(tp.d) < 1e-9
        assert tp.b == pytest.approx(300.0j, rel=1e-12)
        assert tp.c == pytest.approx(1j / 300.0, rel=1e-12)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            abcd_exact(LINE, 0.0, Frequency(50.0))
        with pytest.raises(ValueError):
            abcd_exact(LINE, -10.0, Frequency(50.0))


class TestAbcdLossless:
    def test_agrees_with_exact(self):
        for length, f in ((500.0, 150.0), (300.0, 77.7), (1234.5, 432.1)):
            assert_twoport_close(
                abcd_lossless(LINE, length, Frequency(f)),
                abcd_exact(LINE, length, Frequency(f)),
                1e-12,
            )

    @pytest.mark.parametrize(
        "length,f,n",
        [(500.0, 300.0, 1), (3000.0, 50.0, 1), (300.0, 500.0, 1)],
    )
    def test_minus_identity_at_first_harmonic(self, length, f, n):
        tp = abcd_lossless(LINE, length, Frequency(f))
        sign = (-1.0) ** n
        assert abs(tp.a - sign) < 1e-9
        assert abs(tp.d - sign) < 1e-9
        assert abs(tp.b) < 1e-9
        assert abs(tp.c) < 1e-9

    def test_rejects_lossy_parameters(self):
        with pytest.raises(ValueError):
            abcd_lossless(LineParameters(L=1e-3, C=1e-8, r=0.01), 100.0, Frequency(50.0))
        with pytest.raises(ValueError):
            abcd_lossless(LineParameters(L=1e-3, C=1e-8, g=1e-9), 100.0, Frequency(50.0))


class TestNominalPi:
    def test_short_length_is_near_identity(self):
        tp = nominal_pi(LINE, 1e-12, Frequency(50.0))
        assert_twoport_close(tp, TwoPort.identity(), 1e-12)

    def test_short_line_matches_exact(self):
        # 10 km at 50 Hz: lumped model is adequate
        assert_twoport_close(
            nominal_pi(LINE, 10.0, Frequency(50.0)),
            abcd_exact(LINE, 10.0, Frequency(50.0)),
            1e-6,
        )

    def test_half_wave_line_is_badly_wrong(self):
        # a single lumped section cannot represent a half wavelength
        pi_tp = nominal_pi(LINE, 500.0, Frequency(300.0))
        exact = abcd_exact(LINE, 500.0, Frequency(300.0))
        assert twoport_max_error(pi_tp, exact) > 0.1

    def test_reciprocity(self):
        lossy = LineParameters(L=1e-3, C=1.1111e-8, r=0.05, g=5e-8)
        tp = nominal_pi(lossy, 120.0, Frequency(60.0))
        assert tp.reciprocity_defect() < 1e-10


class TestCascade:
    def test_identity_cases(self):
        m = abcd_exact(LINE, 200.0, Frequency(120.0))
        assert m @ TwoPort.identity() == m
        assert TwoPort.identity() @ m == m

    def test_two_halves_equal_whole(self):
        half = abcd_exact(LINE, 250.0, Frequency(300.0))
        whole = abcd_exact(LINE, 500.0, Frequency(300.0))
        assert_twoport_close(half @ half, whole, 1e-10)


class TestPiCascadeOracle:
    def test_single_section_is_nominal_pi(self):
        freq = Frequency(150.0)
        assert pi_cascade_oracle(LINE, 500.0, freq, 1) == nominal_pi(LINE, 500.0, freq)

    def test_rejects_zero_sections(self):
        with pytest.raises(ValueError):
            pi_cascade_oracle(LINE, 500.0, Frequency(150.0), 0)

    def test_converges_at_half_wave(self):
        freq = Frequency(300.0)
        exact = abcd_exact(LINE, 500.0, freq)
        assert twoport_max_error(pi_cascade_oracle(LINE, 500.0, freq, 1000), exact) < 1e-4

    def test_converges_short_electrical_length(self):
        freq = Frequency(50.0)
        exact = abcd_exact(LINE, 300.0, freq)
        assert twoport_max_error(pi_cascade_oracle(LINE, 300.0, freq, 100), exact) < 1e-5

    def test_monotone_error_decay(self):
        freq = Frequency(300.0)
        exact = abcd_exact(LINE, 500.0, freq)
        errors = [
            twoport_max_error(pi_cascade_oracle(LINE, 500.0, freq, n), exact)
            for n in (10, 100, 1000)
        ]
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("params", [LINE, LINE_LOSSY], ids=["lossless", "lossy"])
    def test_matches_literal_chain(self, params):
        for f in (50.0, 137.9, 300.0, 437.3, 600.0, 1000.0):
            freq = Frequency(f)
            for n in (1, 2):
                assert pi_cascade_oracle(params, 500.0, freq, n) == literal_chain(
                    params, 500.0, freq, n
                )
            for n in (3, 7, 8, 100, 1000):
                error = twoport_max_error(
                    pi_cascade_oracle(params, 500.0, freq, n),
                    literal_chain(params, 500.0, freq, n),
                )
                assert error <= 1e-12, (f, n, error)

    @pytest.mark.parametrize("params", [LINE, LINE_LOSSY], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("f", [437.3, 1000.0])
    def test_second_order_convergence(self, params, f):
        # error * N**2 is constant while truncation dominates; past 1e5
        # sections roundoff takes over (|AD-BC-1| reaches 9.8e-11 at 1e6)
        freq = Frequency(f)
        exact = abcd_exact(params, 500.0, freq)
        scaled = []
        for n in (10**2, 10**3, 10**4, 10**5):
            tp = pi_cascade_oracle(params, 500.0, freq, n)
            assert tp.reciprocity_defect() < RECIPROCITY_TOL, (n, tp.reciprocity_defect())
            scaled.append(twoport_max_error(tp, exact) * n * n)
        assert max(scaled) <= 1.01 * min(scaled), scaled


def literal_chain(params: LineParameters, length: float, freq: Frequency, n: int) -> TwoPort:
    """n nominal-pi sections of length/n multiplied one at a time."""
    section = nominal_pi(params, length / n, freq)
    result = section
    for _ in range(n - 1):
        result = result @ section
    return result


# --- randomized properties -------------------------------------------------
#
# Generators stay inside the overhead-line envelope the library targets:
# surge impedance 100..1000 ohm, modest losses (attenuation * length <= 1),
# lengths to 2000 km, frequencies to 2 kHz.  The fixed reciprocity budget
# of 1e-10 is meaningless for lumped models driven far outside their
# passband, where entries blow up and float cancellation dominates.

line_params = st.builds(
    LineParameters,
    L=st.floats(min_value=5e-4, max_value=5e-3),
    C=st.floats(min_value=5e-9, max_value=5e-8),
    r=st.floats(min_value=0.0, max_value=0.1),
    g=st.floats(min_value=0.0, max_value=1e-7),
)
lossless_params = st.builds(
    LineParameters,
    L=st.floats(min_value=5e-4, max_value=5e-3),
    C=st.floats(min_value=5e-9, max_value=5e-8),
)
lengths = st.floats(min_value=1.0, max_value=2000.0)
frequencies = st.floats(min_value=1.0, max_value=2000.0).map(Frequency)


@given(params=line_params, length=lengths, freq=frequencies)
@settings(max_examples=200)
def test_property_reciprocity_all_constructors(params, length, freq):
    theta = freq.omega * length / params.velocity
    assume(theta < 4.0 * math.pi)
    for tp in (
        abcd_exact(params, length, freq),
        nominal_pi(params, length, freq),
        pi_cascade_oracle(params, length, freq, 16),
    ):
        assert tp.reciprocity_defect() < 1e-10
    if params.is_lossless:
        assert abcd_lossless(params, length, freq).reciprocity_defect() < 1e-10


@given(params=line_params, l1=lengths, l2=lengths, freq=frequencies)
@settings(max_examples=200)
def test_property_segment_composition(params, l1, l2, freq):
    whole = abcd_exact(params, l1 + l2, freq)
    joined = abcd_exact(params, l1, freq) @ abcd_exact(params, l2, freq)
    assert_twoport_close(joined, whole, 1e-10, z_ref=params.surge_impedance)


@given(params=lossless_params, length=lengths, freq=frequencies)
@settings(max_examples=200)
def test_property_lossless_entries_structure(params, length, freq):
    tp = abcd_exact(params, length, freq)
    assert abs(tp.a.imag) < 1e-12
    assert abs(tp.d.imag) < 1e-12
    assert abs(tp.b.real) < 1e-12 * max(1.0, abs(tp.b.imag))
    assert abs(tp.c.real) < 1e-12 * max(1.0, abs(tp.c.imag))


@given(params=lossless_params, freq=frequencies, n=st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_property_tuned_length_gives_signed_identity(params, freq, n):
    length = n * params.velocity / (2.0 * freq.f)
    tp = abcd_exact(params, length, freq)
    sign = (-1.0) ** n
    assert abs(tp.a - sign) < 1e-9
    assert abs(tp.d - sign) < 1e-9
    assert abs(tp.b) < 1e-9 * max(1.0, params.surge_impedance)
    assert abs(tp.c) < 1e-9


@given(
    params=lossless_params,
    freq=frequencies,
    electrical_length=st.floats(min_value=0.5, max_value=0.95 * 2.0 * math.pi),
)
@settings(max_examples=50, deadline=None)
def test_property_oracle_error_decays_monotonically(params, freq, electrical_length):
    # pick the length that realizes the requested electrical angle
    length = electrical_length * params.velocity / freq.omega
    exact = abcd_exact(params, length, freq)
    zc = params.surge_impedance
    errors = [
        twoport_max_error(pi_cascade_oracle(params, length, freq, n), exact, z_ref=zc)
        for n in (10, 100, 1000)
    ]
    assert errors[0] > errors[1] > errors[2]
