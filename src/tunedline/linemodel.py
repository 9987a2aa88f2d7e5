"""Distributed-parameter transmission line two-port models.

A long overhead line (> 250 km) cannot be treated as a lumped impedance:
its series impedance z = r + jwL and shunt admittance y = g + jwC are
spread uniformly along the length.  The steady-state terminal behaviour is
captured by a 2x2 complex transmission (ABCD) matrix

    [Vs]   [a  b] [Vr]
    [Is] = [c  d] [Ir]

with a = d = cosh(gamma*l), b = Zc*sinh(gamma*l), c = sinh(gamma*l)/Zc,
where gamma = sqrt(z*y) is the propagation constant per km and
Zc = sqrt(z/y) the characteristic impedance.

This module provides the exact hyperbolic model, the lossless
trigonometric simplification, the lumped nominal-pi approximation, and a
pi-section cascade that converges to the exact model and serves as an
independent numerical oracle.  Two-ports chain with `@`
(`TwoPort.__matmul__`), the sending-side port on the left; the cascade
of N equal sections is a literal `@` product formed by repeated
squaring, so it costs O(log N) two-port products per frequency.

Units: lengths in km, frequency in Hz, impedances in ohm, admittances in
siemens.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

__all__ = [
    "LineParameters",
    "Frequency",
    "WaveQuantities",
    "TwoPort",
    "default_line",
    "wave_quantities",
    "abcd_exact",
    "abcd_lossless",
    "nominal_pi",
    "pi_cascade_oracle",
    "RECIPROCITY_TOL",
]

# |a*d - b*c - 1| allowed for any constructed two-port.
RECIPROCITY_TOL = 1e-10


class _Validated:
    """Base for the value types that check their fields in __new__.

    Such a type subclasses (_Validated, namedtuple(...)) and checks its
    arguments in __new__, whose signature alone declares field types and
    defaults.  The namedtuple's _make, and _replace, which calls it, would
    build the tuple without __new__; here they go through it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)


class LineParameters(_Validated, namedtuple("LineParameters", "L C r g")):
    """Per-km line constants L (H), C (F), r (ohm), g (S): series r + jwL,
    shunt g + jwC.  L*C must be a positive finite float (velocity 1/sqrt(LC))."""

    __slots__ = ()

    def __new__(cls, L: float, C: float, r: float = 0.0, g: float = 0.0) -> "LineParameters":
        for name, value in (("L", L), ("C", C), ("r", r), ("g", g)):
            if not math.isfinite(value):
                raise ValueError(f"line parameter {name} must be finite")
        if L <= 0.0 or C <= 0.0:
            raise ValueError("L and C must be positive")
        if r < 0.0 or g < 0.0:
            raise ValueError("r and g must be non-negative")
        if not 0.0 < L * C < math.inf:
            raise ValueError("L*C is out of float range")
        return super().__new__(cls, L, C, r, g)

    @property
    def is_lossless(self) -> bool:
        return self.r == 0.0 and self.g == 0.0

    @property
    def velocity(self) -> float:
        """Wave propagation velocity 1/sqrt(L*C) in km/s."""
        return 1.0 / math.sqrt(self.L * self.C)

    @property
    def surge_impedance(self) -> float:
        """Lossless characteristic impedance sqrt(L/C) in ohm."""
        return math.sqrt(self.L / self.C)

    def series_impedance(self, omega: float) -> complex:
        """z = r + jwL, ohm/km."""
        return complex(self.r, omega * self.L)

    def shunt_admittance(self, omega: float) -> complex:
        """y = g + jwC, S/km."""
        return complex(self.g, omega * self.C)


def default_line() -> LineParameters:
    """Default lossless 220 kV profile.

    L = 1.0 mH/km and C = 1/90 uF/km give a wave velocity of exactly
    3.0e5 km/s and a 300 ohm surge impedance, so the closed-form tuning
    frequencies come out as round numbers (300/600/900 Hz at 500 km).
    """
    return LineParameters(L=1.0e-3, C=1.0 / 9.0e7)


class Frequency(_Validated, namedtuple("Frequency", "f")):
    """Operating frequency: cyclic f (float, Hz) and angular omega (rad/s)."""

    __slots__ = ()

    def __new__(cls, f: float) -> "Frequency":
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError("frequency must be positive and finite")
        return super().__new__(cls, f)

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.f


class WaveQuantities(namedtuple("WaveQuantities", "gamma zc")):
    """Propagation constant gamma (complex, 1/km) and characteristic
    impedance zc (complex, ohm)."""

    __slots__ = ()


class TwoPort(namedtuple("TwoPort", "a b c d")):
    """Transmission (ABCD) matrix entries, all complex: a, d dimensionless,
    b in ohm, c in siemens."""

    __slots__ = ()

    @classmethod
    def identity(cls) -> "TwoPort":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def reciprocity_defect(self) -> float:
        """|a*d - b*c - 1|; zero for any passive reciprocal network."""
        return abs(self.a * self.d - self.b * self.c - 1.0)

    def __matmul__(self, other: "TwoPort") -> "TwoPort":
        """Matrix product, self on the sending side of other."""
        return TwoPort(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def wave_quantities(params: LineParameters, freq: Frequency) -> WaveQuantities:
    """Per-km wave quantities gamma = sqrt(z*y) and zc = sqrt(z/y).

    Both square roots take the principal branch (Re >= 0): attenuation and
    the resistive part of the characteristic impedance are non-negative.
    For a lossless line this reduces exactly to gamma = jw*sqrt(LC) and a
    purely real zc = sqrt(L/C).
    """
    z = params.series_impedance(freq.omega)
    y = params.shunt_admittance(freq.omega)
    gamma = cmath.sqrt(z * y)
    zc = cmath.sqrt(z / y)
    return WaveQuantities(gamma=gamma, zc=zc)


def abcd_exact(params: LineParameters, length: float, freq: Frequency) -> TwoPort:
    """Exact distributed-parameter two-port over the given length (km).

    a = d = cosh(gamma*l), b = zc*sinh(gamma*l), c = sinh(gamma*l)/zc.
    Valid for lossy and lossless lines.
    """
    _check_length(length)
    wq = wave_quantities(params, freq)
    gl = wq.gamma * length
    ch = cmath.cosh(gl)
    sh = cmath.sinh(gl)
    return TwoPort(ch, wq.zc * sh, sh / wq.zc, ch)


def abcd_lossless(params: LineParameters, length: float, freq: Frequency) -> TwoPort:
    """Lossless-line two-port: a = d = cos(theta), b = j*zc*sin(theta),
    c = j*sin(theta)/zc with theta = w*l*sqrt(LC).

    Only defined for r = 0 and g = 0; agrees with abcd_exact there.
    """
    _check_length(length)
    if not params.is_lossless:
        raise ValueError("abcd_lossless requires r = 0 and g = 0")
    theta = freq.omega * length * math.sqrt(params.L * params.C)
    zc = params.surge_impedance
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    return TwoPort(
        complex(cos_t, 0.0),
        complex(0.0, zc * sin_t),
        complex(0.0, sin_t / zc),
        complex(cos_t, 0.0),
    )


def nominal_pi(params: LineParameters, length: float, freq: Frequency) -> TwoPort:
    """Lumped nominal-pi approximation of the whole line.

    Total series Z = z*l with half the total shunt admittance Y = y*l at
    each terminal: a = d = 1 + ZY/2, b = Z, c = Y*(1 + ZY/4).  Adequate
    for short lines only; see pi_cascade_oracle for a converging chain.
    """
    _check_length(length)
    z_total = params.series_impedance(freq.omega) * length
    y_total = params.shunt_admittance(freq.omega) * length
    zy = z_total * y_total
    a = 1.0 + zy / 2.0
    return TwoPort(a, z_total, y_total * (1.0 + zy / 4.0), a)


def pi_cascade_oracle(
    params: LineParameters, length: float, freq: Frequency, n_sections: int
) -> TwoPort:
    """Cascade of n_sections nominal-pi segments of length l/n_sections.

    Converges to abcd_exact as n_sections grows (the error falls as
    1/n_sections**2), which makes it an independent check on the
    hyperbolic closed form.

    The chain is still a literal `@` product of n_sections equal
    sections, formed by repeated squaring: about 2*log2(n_sections)
    products in place of n_sections - 1.  Nothing checks reciprocity on
    the way: a section far into the stopband (|ZY| >> 4) already misses
    RECIPROCITY_TOL by roundoff, and the oracle must still return its
    product.

    This is the oracle for the `pi-cascade` sweep, which does not call
    it: the sweep forms the same power in closed form, from cosh and
    sinh of N times the section's angle, and the tests check it against
    this function within a rounding-error bound that grows with N.
    """
    if n_sections < 1:
        raise ValueError("n_sections must be at least 1")
    power = nominal_pi(params, length / n_sections, freq)
    while not n_sections & 1:
        power = power @ power
        n_sections >>= 1
    result = power
    n_sections >>= 1
    while n_sections:
        power = power @ power
        if n_sections & 1:
            result = result @ power
        n_sections >>= 1
    return result


def _check_length(length: float) -> None:
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("length must be positive")
