"""Tests for the terminal solver and power formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tunedline import (
    Frequency,
    LoadSpec,
    PowerTransferInputs,
    ResonanceError,
    TerminalState,
    TwoPort,
    abcd_exact,
    complex_power_accounting,
    default_line,
    pi_cascade_oracle,
    receiving_active_power,
    receiving_reactive_power,
    reactive_power_tuned,
    reactive_power_with_regulation,
    solve_receiving_end,
    voltage_regulation,
)

LINE = default_line()
VS_PHASE = 220e3 / math.sqrt(3)

# 100 MVAr three-phase at 220 kV line-to-line, rated at 50 Hz
RATED_CAP = LoadSpec.from_rated_capacitor(100e6, 220e3, 50.0)


class TestLoadSpec:
    def test_rated_capacitor_sizing(self):
        # C = Q / (2*pi*f*V^2)
        assert RATED_CAP.c_load == pytest.approx(6.576650540987411e-06, rel=1e-12)
        expected = 100e6 / (2.0 * math.pi * 50.0 * (220e3) ** 2)
        assert RATED_CAP.c_load == pytest.approx(expected, rel=1e-15)

    def test_rated_capacitor_draws_rated_q_at_rating(self):
        # per-phase Q at rated voltage and frequency, times 3, is the rating
        y = RATED_CAP.admittance(Frequency(50.0))
        q3 = 3.0 * (VS_PHASE**2) * y.imag
        assert q3 == pytest.approx(100e6, rel=1e-12)

    def test_admittance_scales_with_frequency(self):
        y50 = RATED_CAP.admittance(Frequency(50.0))
        y300 = RATED_CAP.admittance(Frequency(300.0))
        assert y300.imag == pytest.approx(6.0 * y50.imag, rel=1e-12)
        assert y300.real == y50.real == 0.0

    def test_from_impedance(self):
        load = LoadSpec.from_impedance(484.0, c_load=1e-6)
        assert load.g_load == pytest.approx(1.0 / 484.0, rel=1e-15)
        assert load.admittance(Frequency(50.0)).imag == pytest.approx(
            2.0 * math.pi * 50.0 * 1e-6, rel=1e-15
        )

    def test_holds_only_the_shunt_pair(self):
        assert list(LoadSpec._fields) == ["g_load", "c_load"]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LoadSpec(-1.0)
        with pytest.raises(ValueError):
            LoadSpec.from_rated_capacitor(0.0, 220e3, 50.0)
        with pytest.raises(ValueError):
            LoadSpec.from_impedance(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            LoadSpec(bad)
        with pytest.raises(ValueError):
            LoadSpec(0.0, bad)
        with pytest.raises(ValueError):
            LoadSpec.from_rated_capacitor(100e6, 220e3, 50.0, g_load=bad)

    @pytest.mark.parametrize(
        "rated_q, rated_v",
        [
            (100e6, 1e154),  # 2*pi*f*V^2 overflows to inf, so Q/inf = 0
            (5e-324, 220e3),  # Q/(2*pi*f*V^2) underflows to 0
        ],
    )
    def test_rated_capacitor_out_of_float_range(self, rated_q, rated_v):
        with pytest.raises(OverflowError):
            LoadSpec.from_rated_capacitor(rated_q, rated_v, 50.0)


class TestSolveReceivingEnd:
    def test_identity_line_passthrough(self):
        state = solve_receiving_end(
            TwoPort.identity(), 1.0 + 0.0j, LoadSpec(1.0), Frequency(50.0)
        )
        assert state.vr == pytest.approx(1.0 + 0.0j)
        assert state.ir == pytest.approx(1.0 + 0.0j)
        assert state.is_ == pytest.approx(1.0 + 0.0j)

    def test_minus_identity_preserves_magnitudes(self):
        minus_identity = TwoPort(-1.0 + 0.0j, 0.0j, 0.0j, -1.0 + 0.0j)
        for load in (
            LoadSpec(0.5, 2e-6),
            RATED_CAP,
            LoadSpec.from_impedance(120.0),
        ):
            state = solve_receiving_end(minus_identity, VS_PHASE + 0.0j, load, Frequency(300.0))
            assert abs(state.vr) == pytest.approx(abs(state.vs), rel=1e-12)
            assert abs(state.ir) == pytest.approx(abs(state.is_), rel=1e-12)

    def test_quarter_wave_against_linear_solve_oracle(self):
        # independent oracle: numpy solve of the boundary conditions
        #   a*vr + b*ir = vs,  y*vr - ir = 0
        freq = Frequency(150.0)
        line = abcd_exact(LINE, 500.0, freq)
        y = RATED_CAP.admittance(freq)
        m = np.array([[line.a, line.b], [y, -1.0]], dtype=complex)
        vr_o, ir_o = np.linalg.solve(m, np.array([VS_PHASE, 0.0], dtype=complex))
        is_o = line.c * vr_o + line.d * ir_o

        state = solve_receiving_end(line, VS_PHASE + 0.0j, RATED_CAP, freq)
        assert state.vr == pytest.approx(complex(vr_o), rel=1e-12)
        assert state.ir == pytest.approx(complex(ir_o), rel=1e-12)
        assert state.is_ == pytest.approx(complex(is_o), rel=1e-12)

        # frozen values from the oracle above
        assert state.vr == pytest.approx(-68306.95184812373 + 0.0j, rel=1e-12)
        assert state.ir == pytest.approx(-423.3901974057256j, rel=1e-12)
        assert state.is_ == pytest.approx(-227.68983949374572j, rel=1e-12)

    def test_two_port_relation_holds(self):
        for f in (77.0, 150.0, 300.0, 641.0):
            freq = Frequency(f)
            line = abcd_exact(LINE, 500.0, freq)
            state = solve_receiving_end(line, VS_PHASE + 0.0j, RATED_CAP, freq)
            vs_back = line.a * state.vr + line.b * state.ir
            is_back = line.c * state.vr + line.d * state.ir
            assert vs_back == pytest.approx(state.vs, rel=1e-9)
            assert is_back == pytest.approx(state.is_, rel=1e-9)

    def test_series_resonance_raises(self):
        # capacitor chosen so a + b*y vanishes at 75 Hz on the 500 km line
        freq = Frequency(75.0)
        c_res = 1.0 / (300.0 * 2.0 * math.pi * 75.0)
        load = LoadSpec(0.0, c_res)
        line = abcd_exact(LINE, 500.0, freq)
        with pytest.raises(ResonanceError):
            solve_receiving_end(line, VS_PHASE + 0.0j, load, freq)

    def test_exactly_zero_denominator_raises(self):
        # idealized quarter-wave line with a = 0 exactly, open-circuited
        line = TwoPort(0.0j, 300.0j, 1j / 300.0, 0.0j)
        with pytest.raises(ResonanceError):
            solve_receiving_end(
                line, VS_PHASE + 0.0j, LoadSpec(0.0), Frequency(150.0)
            )


class TestTransferFormulas:
    def test_active_power_examples(self):
        assert receiving_active_power(PowerTransferInputs(1.0, 1.0, 0.0, 0.5)) == 0.0
        assert receiving_active_power(
            PowerTransferInputs(1.0, 1.0, math.pi / 6.0, 0.5)
        ) == pytest.approx(1.0, rel=1e-12)
        assert receiving_active_power(
            PowerTransferInputs(2.0, 1.0, math.pi / 2.0, 1.0)
        ) == pytest.approx(2.0, rel=1e-12)

    def test_reactive_power_examples(self):
        assert receiving_reactive_power(PowerTransferInputs(1.0, 1.0, 0.0, 0.5)) == 0.0
        assert receiving_reactive_power(
            PowerTransferInputs(1.1, 1.0, 0.0, 0.5)
        ) == pytest.approx(0.2, rel=1e-12)
        assert receiving_reactive_power(
            PowerTransferInputs(1.0, 1.0, math.pi / 3.0, 1.0)
        ) == pytest.approx(-0.5, rel=1e-12)

    def test_regulation_examples(self):
        assert voltage_regulation(1.0, 1.0) == 0.0
        assert voltage_regulation(1.05, 1.0) == pytest.approx(0.05, rel=1e-12)
        assert voltage_regulation(0.95, 1.0) == pytest.approx(-0.05, rel=1e-12)
        with pytest.raises(ValueError):
            voltage_regulation(1.0, 0.0)

    def test_regulation_form_examples(self):
        assert reactive_power_with_regulation(1.0, 0.0, 0.0, 1.0) == 0.0
        assert reactive_power_with_regulation(1.0, 0.1, 0.0, 1.0) == pytest.approx(
            0.1, rel=1e-12
        )
        assert reactive_power_with_regulation(1.0, 0.0, math.pi / 3.0, 2.0) == pytest.approx(
            -0.25, rel=1e-12
        )

    def test_tuned_form_examples(self):
        assert reactive_power_tuned(1.0, 0.0, 1.0) == 0.0
        assert reactive_power_tuned(1.0, math.pi / 2.0, 1.0) == pytest.approx(-1.0, rel=1e-12)
        assert reactive_power_tuned(2.0, math.pi / 3.0, 2.0) == pytest.approx(-1.0, rel=1e-12)

    def test_zero_reactance_rejected(self):
        with pytest.raises(ValueError):
            PowerTransferInputs(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            reactive_power_with_regulation(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            reactive_power_tuned(1.0, 0.0, 0.0)


class TestComplexPowerAccounting:
    def test_resistive_passthrough(self):
        state = TerminalState(vs=1.0 + 0.0j, is_=1.0 + 0.0j, vr=1.0 + 0.0j, ir=1.0 + 0.0j)
        result = complex_power_accounting(state)
        assert result.p_r == pytest.approx(1.0)
        assert result.q_r == 0.0
        assert result.q_line == 0.0
        assert result.delta_v == 0.0

    def test_capacitive_load_behind_minus_identity(self):
        minus_identity = TwoPort(-1.0 + 0.0j, 0.0j, 0.0j, -1.0 + 0.0j)
        state = solve_receiving_end(
            minus_identity, -1.0 + 0.0j, LoadSpec(0.0, 1.0), Frequency(1.0 / (2.0 * math.pi))
        )
        # vr = 1, ir = j: purely capacitive load draws q_r = -1
        assert state.vr == pytest.approx(1.0 + 0.0j, rel=1e-12)
        assert state.ir == pytest.approx(1.0j, rel=1e-12)
        result = complex_power_accounting(state)
        assert result.p_r == pytest.approx(0.0, abs=1e-15)
        assert result.q_r == pytest.approx(-1.0, rel=1e-12)
        assert result.q_line == pytest.approx(0.0, abs=1e-12)

    # the chain must be refined with the harmonic index: its phase error
    # grows as theta * theta_section^2, and q_line inherits it
    @pytest.mark.parametrize("f_tuned,sections", [(300.0, 1000), (600.0, 1000), (900.0, 3000)])
    def test_q_line_matches_pi_cascade_oracle_at_tuning(self, f_tuned, sections):
        freq = Frequency(f_tuned)
        for load in (RATED_CAP, LoadSpec(2e-3, RATED_CAP.c_load)):
            exact = _accounting(abcd_exact(LINE, 500.0, freq), load, freq)
            pi = _accounting(pi_cascade_oracle(LINE, 500.0, freq, sections), load, freq)
            scale = max(abs(exact.q_r), 1.0)
            assert abs(exact.q_line - pi.q_line) <= 1e-4 * scale

    def test_q_line_matches_pi_cascade_oracle_detuned(self):
        freq = Frequency(450.0)
        exact = _accounting(abcd_exact(LINE, 500.0, freq), RATED_CAP, freq)
        pi = _accounting(pi_cascade_oracle(LINE, 500.0, freq, 1000), RATED_CAP, freq)
        assert abs(exact.q_line - pi.q_line) <= 1e-4 * max(abs(exact.q_line), abs(pi.q_line))


def _accounting(line: TwoPort, load: LoadSpec, freq: Frequency):
    state = solve_receiving_end(line, VS_PHASE + 0.0j, load, freq)
    return complex_power_accounting(state)


# --- randomized properties -------------------------------------------------

magnitudes = st.floats(min_value=0.1, max_value=1e6)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
reactances = st.floats(min_value=1e-3, max_value=1e3)


@given(vs=magnitudes, vr=magnitudes, delta=angles, x=reactances, sign=st.sampled_from((1.0, -1.0)))
@settings(max_examples=500)
def test_property_regulation_form_matches_direct_form(vs, vr, delta, x, sign):
    x = sign * x
    direct = receiving_reactive_power(PowerTransferInputs(vs, vr, delta, x))
    via_reg = reactive_power_with_regulation(vr, voltage_regulation(vs, vr), delta, x)
    scale = max(abs(direct), abs(via_reg), vs * vr / abs(x))
    assert abs(direct - via_reg) <= 1e-12 * scale


@given(vs=magnitudes, vr=magnitudes, delta=angles, x=reactances)
@settings(max_examples=500)
def test_property_tuned_reduction_identity(vs, vr, delta, x):
    # Q(with regulation) - Q(tuned) = |Vr|^2 * dV * cos(delta) / X
    delta_v = voltage_regulation(vs, vr)
    lhs = reactive_power_with_regulation(vr, delta_v, delta, x) - reactive_power_tuned(
        vr, delta, x
    )
    rhs = vr**2 * delta_v * math.cos(delta) / x
    scale = max(abs(lhs), abs(rhs), vr**2 / abs(x))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(vr=magnitudes, delta=angles, x=reactances)
@settings(max_examples=500)
def test_property_tuned_reactive_never_positive(vr, delta, x):
    assert reactive_power_tuned(vr, delta, x) <= 0.0


load_specs = st.builds(
    LoadSpec,
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e-4),
)


@given(
    load=load_specs,
    f=st.floats(min_value=1.0, max_value=2000.0),
    length=st.floats(min_value=1.0, max_value=2000.0),
)
@settings(max_examples=300)
def test_property_lossless_active_power_conserved(load, f, length):
    freq = Frequency(f)
    line = abcd_exact(LINE, length, freq)
    try:
        state = solve_receiving_end(line, VS_PHASE + 0.0j, load, freq)
    except ResonanceError:
        assume(False)
    s_s = state.vs * state.is_.conjugate()
    s_r = state.vr * state.ir.conjugate()
    assert abs(s_s.real - s_r.real) <= 1e-9 * max(abs(s_s), abs(s_r))


@given(load=load_specs, n=st.integers(min_value=1, max_value=6))
@settings(max_examples=300)
def test_property_zero_regulation_at_tuning(load, n):
    freq = Frequency(n * 300.0)
    line = abcd_exact(LINE, 500.0, freq)
    state = solve_receiving_end(line, VS_PHASE + 0.0j, load, freq)
    assert abs(voltage_regulation(abs(state.vs), abs(state.vr))) < 1e-9
