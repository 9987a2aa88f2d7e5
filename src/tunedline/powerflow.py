"""Terminal phasor solution and power evaluation for a source-line-load system.

An ideal voltage source feeds the sending end of a two-port line whose
receiving end is closed on a shunt load admittance.  Solving the boundary
conditions gives all four terminal phasors, from which exact complex
power is accounted: receiving-end P and Q, voltage regulation, and the
reactive power absorbed by the line itself (sending-end Q minus
receiving-end Q).

The classical reactance-model transfer formulas (P and Q from voltage
magnitudes, torque angle and a single line reactance X) are provided as
separate analytic evaluators; they take user-supplied magnitudes and are
deliberately decoupled from the exact phasor solver.

All quantities are per-phase (line-to-neutral RMS); the sweep loop
(`sweep.sweep_points`) is the one place that converts them to three-phase
totals.  Sign convention: Q > 0 means the element absorbs inductive VArs,
so a capacitive load draws q_r < 0.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .linemodel import Frequency, TwoPort, _Validated

__all__ = [
    "ResonanceError",
    "LoadSpec",
    "TerminalState",
    "PowerTransferInputs",
    "PowerResult",
    "solve_receiving_end",
    "receiving_active_power",
    "receiving_reactive_power",
    "voltage_regulation",
    "reactive_power_with_regulation",
    "reactive_power_tuned",
    "complex_power_accounting",
]


class ResonanceError(ValueError):
    """The line and load are series-resonant at this frequency.

    An ideal source driving a lossless line into a reactive load has
    discrete frequencies where the source sees a short; the operating
    point is physically degenerate rather than merely large.
    """


class LoadSpec(_Validated, namedtuple("LoadSpec", "g_load c_load")):
    """Shunt load at the receiving end as a parallel G-C pair: g_load in S,
    c_load in F.

    The effective admittance at frequency f is
    y(f) = g_load + j*2*pi*f*c_load: conductance is frequency-flat while a
    physical capacitor bank scales linearly with frequency.  The named
    constructors convert nameplate ratings and resistances to this pair.
    """

    __slots__ = ()

    def __new__(cls, g_load: float = 0.0, c_load: float = 0.0) -> "LoadSpec":
        for name, value in (("g_load", g_load), ("c_load", c_load)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if g_load < 0.0 or c_load < 0.0:
            raise ValueError("g_load and c_load must be non-negative")
        return super().__new__(cls, g_load, c_load)

    @classmethod
    def from_rated_capacitor(
        cls,
        rated_q: float,
        rated_v: float,
        rated_f: float,
        g_load: float = 0.0,
    ) -> "LoadSpec":
        """Capacitor bank sized from its nameplate: C = Q / (2*pi*f*V^2).

        rated_q is the three-phase VAr rating and rated_v the line-to-line
        rating voltage; the resulting C is then also the per-phase wye
        capacitance, since Q_3ph = w*C*V_ll^2.  An optional conductance
        models a resistive load component alongside the bank.

        Raises OverflowError when the ratings give no finite positive C
        (the denominator overflows, or the quotient underflows to 0).
        """
        if rated_q <= 0.0 or rated_v <= 0.0 or rated_f <= 0.0:
            raise ValueError("capacitor ratings must all be positive")
        c_load = rated_q / (2.0 * math.pi * rated_f * rated_v**2)
        if c_load == 0.0 or math.isinf(c_load):
            raise OverflowError("capacitor ratings give a capacitance out of float range")
        return cls(g_load=g_load, c_load=c_load)

    @classmethod
    def from_impedance(cls, resistance: float, c_load: float = 0.0) -> "LoadSpec":
        """Parallel resistance (ohm) and capacitance (F); g_load = 1/R."""
        if resistance <= 0.0:
            raise ValueError("load resistance must be positive")
        return cls(g_load=1.0 / resistance, c_load=c_load)

    def admittance(self, freq: Frequency) -> complex:
        """Effective shunt admittance at the given frequency, siemens."""
        return complex(self.g_load, freq.omega * self.c_load)


class TerminalState(namedtuple("TerminalState", "vs is_ vr ir")):
    """The four terminal phasors of a solved line, complex RMS per phase:
    voltages vs, vr in V and currents is_, ir in A."""

    __slots__ = ()


class PowerTransferInputs(
    _Validated, namedtuple("PowerTransferInputs", "vs_mag vr_mag delta x")
):
    """Inputs to the simplified reactance transfer model: voltage magnitudes
    vs_mag and vr_mag in V, torque angle delta in rad, line reactance x in ohm."""

    __slots__ = ()

    def __new__(cls, vs_mag: float, vr_mag: float, delta: float, x: float) -> "PowerTransferInputs":
        if vs_mag < 0.0 or vr_mag < 0.0:
            raise ValueError("voltage magnitudes must be non-negative")
        if x == 0.0:
            raise ValueError("line reactance x must be nonzero")
        return super().__new__(cls, vs_mag, vr_mag, delta, x)


class PowerResult(namedtuple("PowerResult", "p_r q_r delta_v q_line")):
    """Receiving-end P (p_r, W) and Q (q_r, VAr), voltage regulation delta_v
    (a ratio) and line-absorbed Q (q_line, VAr): per-phase floats."""

    __slots__ = ()


# Relative threshold below which |a + b*y| is treated as resonant.
_SINGULARITY_REL = 1e-9


def solve_receiving_end(
    line: TwoPort, vs: complex, load: LoadSpec, freq: Frequency
) -> TerminalState:
    """Solve the terminal phasors for source voltage vs behind the line.

    From vs = a*vr + b*ir and ir = y*vr: vr = vs / (a + b*y), then
    ir = y*vr and is = c*vr + d*ir.

    Raises ResonanceError when |a + b*y| < 1e-9 * |a| (the source would
    see a series-resonant short).
    """
    y = load.admittance(freq)
    den = line.a + line.b * y
    if den == 0 or abs(den) < _SINGULARITY_REL * abs(line.a):
        raise ResonanceError(
            f"line-load resonance at f = {freq.f} Hz: |a + b*y| = {abs(den):.3e}"
        )
    vr = vs / den
    ir = y * vr
    is_ = line.c * vr + line.d * ir
    return TerminalState(vs=vs, is_=is_, vr=vr, ir=ir)


def receiving_active_power(inp: PowerTransferInputs) -> float:
    """P_r = |Vs|*|Vr|*sin(delta) / X."""
    return inp.vs_mag * inp.vr_mag * math.sin(inp.delta) / inp.x


def receiving_reactive_power(inp: PowerTransferInputs) -> float:
    """Q_r = (|Vs|*|Vr|*cos(delta) - |Vr|^2) / X."""
    return (inp.vs_mag * inp.vr_mag * math.cos(inp.delta) - inp.vr_mag**2) / inp.x


def voltage_regulation(vs_mag: float, vr_mag: float) -> float:
    """Fractional rise of sending over receiving voltage, (|Vs|-|Vr|)/|Vr|."""
    if vr_mag == 0.0:
        raise ValueError("vr_mag must be nonzero")
    return (vs_mag - vr_mag) / vr_mag


def reactive_power_with_regulation(
    vr_mag: float, delta_v: float, delta: float, x: float
) -> float:
    """Q_r rewritten through the regulation: |Vr|^2*((1+dV)*cos(delta) - 1)/X.

    Algebraically identical to receiving_reactive_power when delta_v is
    derived from the same voltage magnitudes.
    """
    if x == 0.0:
        raise ValueError("line reactance x must be nonzero")
    return vr_mag**2 * ((1.0 + delta_v) * math.cos(delta) - 1.0) / x


def reactive_power_tuned(vr_mag: float, delta: float, x: float) -> float:
    """Tuned-line receiving Q: |Vr|^2*(cos(delta) - 1)/X, never positive for X > 0."""
    if x == 0.0:
        raise ValueError("line reactance x must be nonzero")
    return vr_mag**2 * (math.cos(delta) - 1.0) / x


def complex_power_accounting(state: TerminalState) -> PowerResult:
    """Exact per-phase complex power bookkeeping of a solved line.

    p_r + j*q_r = vr * conj(ir) is the power delivered to the load;
    q_line = Im(vs*conj(is)) - q_r is the net reactive power the line
    itself absorbs between its terminals.
    """
    s_r = state.vr * state.ir.conjugate()
    s_s = state.vs * state.is_.conjugate()
    return PowerResult(
        p_r=s_r.real,
        q_r=s_r.imag,
        delta_v=voltage_regulation(abs(state.vs), abs(state.vr)),
        q_line=s_s.imag - s_r.imag,
    )
