"""Frequency-sweep engine: P/Q curves over a grid and tuning-dip detection.

Reproduces the tuned-line experiment: an ideal source at a fixed
line-to-line voltage drives the line into a shunt load while the supply
frequency is swept over a uniform grid.  Each grid point is solved
independently with the selected line model; resonant points are flagged
in-band rather than aborting the sweep.  Records are emitted in ascending
frequency order, in the units every output reports: three-phase MW/MVAr
and line-to-line kV.  The grid and the records are generated lazily, one
point at a time, so a consumer that streams them (the `sweep` command)
holds no more than it keeps itself; dip detection is a three-record
sliding window over the same stream.

The per-point loop fuses the two-port build, the terminal solve and the
power accounting into plain local arithmetic, per phase.  Every
expression keeps the operation order of the scalar functions in
`linemodel` and `powerflow` (`abcd_lossless`, `abcd_exact`,
`pi_cascade_oracle`, `solve_receiving_end`, `complex_power_accounting`),
so its records are bit-identical to theirs after the one conversion
to three-phase units, which happens in this loop and nowhere else:
x*3/1e6 for powers and v*sqrt(3)/1e3 for voltages, in that operation
order.  Those functions stay as the independent oracle the tests check
it against, and the loop calls none of them.

The pi-cascade chain is the oracle's repeated squaring of one
`nominal_pi` section, with one shortcut: every power of the section is
symmetric (a == d, bit for bit), because a*b == b*a and c*b == b*c in
floating point.  Squaring a symmetric (a, b, c, a) therefore takes four
complex products, a*a + b*c, a*b + a*b and c*a + c*a, where `@` takes
eight; `x + x` is exact, and unlike `2*x` it keeps signed zeros and
infinities as `@` does.  Multiplying the squares into the result is the
full four-entry `@` product, since the result's d is not bitwise its a.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .linemodel import Frequency, LineParameters, _Validated, _check_length
from .powerflow import _SINGULARITY_REL, LoadSpec
from .tuning import is_tuned

__all__ = [
    "MODEL_CHOICES",
    "SweepConfig",
    "SweepRecord",
    "TuningDip",
    "TuningDipWindow",
    "sweep_points",
]

MODEL_CHOICES = ("exact", "lossless", "pi-cascade")

# the one sqrt(3): line-to-line over line-to-neutral voltage
_SQRT3 = math.sqrt(3.0)


_SWEEP_FIELDS = "line length source_voltage load f_start f_end n_points model pi_sections"


class SweepConfig(_Validated, namedtuple("SweepConfig", _SWEEP_FIELDS)):
    """Full experiment definition: line, load, source and frequency grid.

    length is in km, source_voltage line-to-line RMS volts and f_start,
    f_end Hz (floats), over n_points (int) grid points; the solver works
    per phase with vs = source_voltage/sqrt(3) at angle zero.  model (str)
    selects the line representation: "exact", "lossless", or "pi-cascade"
    with pi_sections (int) lumped segments, each of which must be longer
    than 0 km after rounding.  The grid step must exceed 2*ulp(f_end),
    which keeps the computed grid strictly increasing.
    """

    __slots__ = ()

    def __new__(
        cls,
        line: LineParameters,
        length: float,
        source_voltage: float,
        load: LoadSpec,
        f_start: float,
        f_end: float,
        n_points: int,
        model: str = "lossless",
        pi_sections: int = 100,
    ) -> "SweepConfig":
        _check_length(length)
        if not (math.isfinite(source_voltage) and source_voltage > 0.0):
            raise ValueError("source_voltage must be positive and finite")
        if not (math.isfinite(f_start) and math.isfinite(f_end)):
            raise ValueError("f_start and f_end must be finite")
        if not (0.0 < f_start < f_end):
            raise ValueError("need 0 < f_start < f_end")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        for name, count in (("n_points", n_points), ("pi_sections", pi_sections)):
            if count > sys.float_info.max:  # float(count) raises OverflowError
                raise ValueError(f"{name} is out of float range")
        if (f_end - f_start) / (n_points - 1) <= 2.0 * math.ulp(f_end):
            raise ValueError(
                "frequency step (f_end - f_start)/(n_points - 1) must exceed 2*ulp(f_end)"
            )
        if model not in MODEL_CHOICES:
            raise ValueError(f"model must be one of {MODEL_CHOICES}")
        if model == "lossless" and not line.is_lossless:
            raise ValueError("lossless model requires r = 0 and g = 0")
        if pi_sections < 1:
            raise ValueError("pi_sections must be at least 1")
        if model == "pi-cascade" and length / pi_sections == 0.0:
            raise ValueError("length / pi_sections underflows to a zero-length section")
        return super().__new__(
            cls, line, length, source_voltage, load, f_start, f_end, n_points, model, pi_sections
        )

    def grid(self) -> Iterator[float]:
        """Uniform frequency grid, endpoints inclusive, generated lazily."""
        f_start = self.f_start
        step = (self.f_end - f_start) / (self.n_points - 1)
        for i in range(self.n_points - 1):
            yield f_start + i * step
        yield self.f_end


_RECORD_FIELDS = "f_hz p_r_mw q_r_mvar q_line_mvar vs_kv vr_kv delta_v singular"


class SweepRecord(namedtuple("SweepRecord", _RECORD_FIELDS)):
    """One frequency point, in the units and order of the records.csv
    columns: f_hz (Hz), three-phase p_r_mw (MW), q_r_mvar and q_line_mvar
    (MVAr), line-to-line vs_kv and vr_kv (kV) and delta_v, all float, and
    the bool singular.

    The only record type of a sweep.  Singular (resonant) points keep
    f_hz, vs_kv and the flag but carry None for everything the solve
    would have produced.  Every record of one sweep shares one vs_kv
    float object, which lets `reporting.RecordWriter` format it once.
    """

    __slots__ = ()


class TuningDip(namedtuple("TuningDip", "f_detected n_matched q_line_at_dip")):
    """A local minimum of |q_line_mvar| at f_detected (float, Hz), matched to
    harmonic n_matched (int, 0 if none); q_line_at_dip is its q_line_mvar
    (float, three-phase MVAr)."""

    __slots__ = ()


def sweep_points(cfg: SweepConfig, frequencies: Iterable[float]) -> Iterator[SweepRecord]:
    """Solve cfg's system at each given frequency (Hz, positive and finite).

    A generator: each record is solved when it is asked for, so memory
    does not grow with the number of frequencies.

    For each point: vr = vs / (a + b*y), ir = y*vr, is = c*vr + d*ir,
    then S_r = vr*conj(ir) and S_s = vs*conj(is).  A point is singular
    when |a + b*y| < 1e-9 * |a|, as in `solve_receiving_end`.

    The record converts the per-phase p_r, q_r, q_line (W, VAr) and
    |vs|, |vr| (V) to three-phase MW/MVAr and line-to-line kV; vs_kv is
    computed once, and every record shares that float.

    Raises ValueError naming the frequency when a point's solution leaves
    the float range: an overflow or an infinite phase angle while building
    the two-port, |vr| = 0, or a record cell that is not finite: one
    isfinite test of the sum of p_r, q_r, q_line times 3, |vr| times
    sqrt(3) and delta_v, which also rejects a row whose finite cells sum
    past the float range.
    """
    line, length, model = cfg.line, cfg.length, cfg.model
    r, L, g, C = line.r, line.L, line.g, line.C
    g_load, c_load = cfg.load.g_load, cfg.load.c_load
    sqrt_lc = math.sqrt(L * C)
    zc_lossless = math.sqrt(L / C)
    vs = complex(cfg.source_voltage / _SQRT3, 0.0)
    vs_mag = abs(vs)
    vs_kv = vs_mag * _SQRT3 / 1e3
    two_pi = 2.0 * math.pi
    seg = length / cfg.pi_sections
    squarings, bits = _chain_plan(cfg.pi_sections)
    new_record = tuple.__new__  # SweepRecord(...) without namedtuple's Python-level __new__
    try:
        for f in frequencies:
            omega = two_pi * f
            if model == "lossless":
                theta = omega * length * sqrt_lc
                cos_t = math.cos(theta)
                sin_t = math.sin(theta)
                a = d = complex(cos_t, 0.0)
                b = complex(0.0, zc_lossless * sin_t)
                c = complex(0.0, sin_t / zc_lossless)
            elif model == "exact":
                z = complex(r, omega * L)
                y_line = complex(g, omega * C)
                zc = cmath.sqrt(z / y_line)
                gl = cmath.sqrt(z * y_line) * length
                a = d = cmath.cosh(gl)
                sh = cmath.sinh(gl)
                b = zc * sh
                c = sh / zc
            else:
                a, b, c, d = _pi_cascade(
                    complex(r, omega * L), complex(g, omega * C), seg, squarings, bits
                )
            y = complex(g_load, omega * c_load)
            den = a + b * y
            if den == 0 or abs(den) < _SINGULARITY_REL * abs(a):
                yield SweepRecord(f, None, None, None, vs_kv, None, None, True)
                continue
            vr = vs / den
            ir = y * vr
            is_ = c * vr + d * ir
            s_r = vr * ir.conjugate()
            p_r = s_r.real
            q_r = s_r.imag
            q_line = (vs * is_.conjugate()).imag - q_r
            vr_mag = abs(vr)
            delta_v = (vs_mag - vr_mag) / vr_mag  # ZeroDivisionError on |vr| = 0
            p_r3 = p_r * 3.0
            q_r3 = q_r * 3.0
            q_line3 = q_line * 3.0
            vr_ll = vr_mag * _SQRT3
            if not math.isfinite(p_r3 + q_r3 + q_line3 + vr_ll + delta_v):
                raise OverflowError
            yield new_record(SweepRecord, (
                f, p_r3 / 1e6, q_r3 / 1e6, q_line3 / 1e6, vs_kv, vr_ll / 1e3, delta_v, False
            ))
    except (ArithmeticError, ValueError):  # math.cos(inf) raises ValueError
        raise ValueError(f"solution out of float range at f = {f} Hz") from None


def _chain_plan(n_sections: int) -> tuple[int, list[bool]]:
    """How pi_cascade_oracle's repeated squaring walks the bits of N.

    N = 2**squarings * (2*m + 1): the chain squares the section
    `squarings` times and takes that power as the result, then squares on
    once per bit of m, lowest first, multiplying the power into the result
    where the bit is set.
    """
    squarings = (n_sections & -n_sections).bit_length() - 1
    bits = [bool(n_sections >> k & 1) for k in range(squarings + 1, n_sections.bit_length())]
    return squarings, bits


def _pi_cascade(
    z: complex, y: complex, seg: float, squarings: int, bits: list[bool]
) -> tuple[complex, complex, complex, complex]:
    """pi_cascade_oracle's (a, b, c, d), bit for bit, from the per-km z and y,
    the section length seg and the `_chain_plan` of N.

    The section is built as `nominal_pi` builds it.  Each power of it is
    symmetric (a, b, c, a), and is squared with four products (see the
    module docstring); the result takes the full `@` product.
    """
    z_total = z * seg
    y_total = y * seg
    zy = z_total * y_total
    a = 1.0 + zy / 2.0
    b = z_total
    c = y_total * (1.0 + zy / 4.0)
    for _ in range(squarings):
        bc = b * c
        ab = a * b
        ca = c * a
        a, b, c = a * a + bc, ab + ab, ca + ca
    ra, rb, rc, rd = a, b, c, a
    for bit in bits:
        bc = b * c
        ab = a * b
        ca = c * a
        a, b, c = a * a + bc, ab + ab, ca + ca
        if bit:
            ra, rb, rc, rd = ra * a + rb * c, ra * b + rb * a, rc * a + rd * c, rc * b + rd * a
    return ra, rb, rc, rd


class TuningDipWindow:
    """Tuning-dip detection over a record stream, three records at a time.

    Feed the records of one sweep in ascending frequency order through
    any number of `extend` calls, then call `close` once for the dips.
    The window keeps one record and one magnitude between calls, so memory
    does not grow with the sweep.  `usable` counts the non-singular
    records seen so far.

    A non-singular record is a dip when its |q_line_mvar| is strictly smaller
    than both neighbours'; the first and last record of the sweep need
    only be smaller than their single neighbour (a tuning point can sit
    exactly on the sweep edge).  Records next to a singular one are not
    dips, since one neighbour is unknown there.

    Each dip is matched to the nearest analytic harmonic n*v/(2*length);
    dips farther than two grid steps (the spacing of the first two
    records) from every harmonic are reported with n_matched = 0.
    """

    __slots__ = ("length", "velocity", "dips", "usable", "_left", "_mid", "_q", "_step")

    def __init__(self, length: float, velocity: float) -> None:
        self.length = length
        self.velocity = velocity
        self.dips: list[TuningDip] = []
        self.usable = 0
        # |q_line_mvar| of the record under judgement (_mid) and of its left
        # neighbour.  A singular record's magnitude is nan and a missing
        # sweep-edge neighbour's is inf, so one test `q < left and
        # q < right` applies all the rules above: every comparison with
        # nan is false, and every finite q is below inf.  q = inf before
        # the first record judges nothing.
        self._left = math.inf
        self._mid: SweepRecord | None = None
        self._q = math.inf
        self._step: float | None = None

    def extend(self, records: Iterable[SweepRecord]) -> None:
        """Slide the window over the next records of the sweep."""
        left, mid, q, step = self._left, self._mid, self._q, self._step
        usable = self.usable
        for rec in records:
            if rec.singular:
                right = math.nan
            else:
                right = abs(rec.q_line_mvar)
                usable += 1
            if step is None and mid is not None:
                step = rec.f_hz - mid.f_hz
            if q < left and q < right:
                self._match(mid, step)
            left, mid, q = q, rec, right
        self._left, self._mid, self._q, self._step = left, mid, q, step
        self.usable = usable

    def close(self) -> list[TuningDip]:
        """Judge the last record against its left neighbour; return all dips.

        Fewer than 3 non-singular records give no dips, edges included.
        """
        if self.usable < 3:
            self.dips.clear()
        elif self._q < self._left:
            self._match(self._mid, self._step)
        return self.dips

    def _match(self, rec: SweepRecord, step: float) -> None:
        _, nearest = is_tuned(self.length, Frequency(rec.f_hz), self.velocity)
        n = nearest.n if abs(rec.f_hz - nearest.value) <= 2.0 * step else 0
        self.dips.append(TuningDip(rec.f_hz, n, rec.q_line_mvar))
