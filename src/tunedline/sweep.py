"""Frequency-sweep engine: P/Q curves over a grid and tuning-dip detection.

Reproduces the tuned-line experiment: an ideal source at a fixed
line-to-line voltage drives the line into a shunt load while the supply
frequency is swept over a uniform grid.  Each grid point is solved
independently with the selected line model; resonant points are flagged
in-band rather than aborting the sweep.  Records are emitted in ascending
frequency order, in the units every output reports: three-phase MW/MVAr
and line-to-line kV.  The grid and the records are generated lazily, one
point at a time, so a consumer that streams them (the `sweep` command)
holds no more than it keeps itself.  `summarize` is the one pass over
that stream that counts its records and singular records and finds its
tuning dips, three records at a time.

The per-point loop fuses the two-port build, the terminal solve and the
power accounting into plain local arithmetic, per phase.  Every
expression keeps the operation order of the scalar functions in
`linemodel` and `powerflow` (`abcd_lossless`, `abcd_exact`,
`solve_receiving_end`, `complex_power_accounting`), so its lossless and
exact records are bit-identical to theirs after the one conversion to
three-phase units, which happens in this loop and nowhere else: x*3/1e6
for powers and v*sqrt(3)/1e3 for voltages, in that operation order.
Those functions stay as the independent oracle the tests check it
against, and the loop calls none of them.

The pi-cascade two-port is not the oracle's chain of products.  N equal
nominal-pi sections (a, b, c, a) with a*a - b*c = 1 are a uniform line
of N sections whose angle theta per section has cosh(theta) = a and
sinh(theta) = s = sqrt(b*c), so their product is (cosh(N*theta),
b*u, c*u, cosh(N*theta)) with u = sinh(N*theta)/s, at a cost that does
not grow with N.  theta is asinh(s), which keeps its relative accuracy
for small sections, except near a = 0, where asinh(s) sits at its
branch point s = +-j and e**theta = a + s is used instead.  The principal
asinh has cosh(theta) = -a where Re(a) < 0; the true angle there is
j*pi - asinh(s), which negates cosh(N*theta) for odd N and u for even
N.  The result agrees with `pi_cascade_oracle` within rounding error that
grows with N and with |N*theta|, not bit for bit (see the tests).
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
    "SweepSummary",
    "TuningDip",
    "summarize",
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
    float object, so `reporting.RecordWriter` formats the first record's
    vs_kv once per chunk and reuses that cell in every row.
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
    n_sections = cfg.pi_sections
    seg = length / n_sections
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
                a, b, c, d = _pi_power(
                    complex(r, omega * L), complex(g, omega * C), seg, n_sections
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


def _pi_power(
    z: complex, y: complex, seg: float, n_sections: int
) -> tuple[complex, complex, complex, complex]:
    """The (a, b, c, d) of n_sections nominal-pi sections of length seg, in
    closed form (see the module docstring), from the per-km z and y.

    The section is built as `nominal_pi` builds it, (a, z_s, c_s, a).
    """
    z_s = z * seg
    y_s = y * seg
    zy = z_s * y_s
    a = 1.0 + zy / 2.0
    c_s = y_s * (1.0 + zy / 4.0)
    s = cmath.sqrt(z_s * c_s)
    if abs(a) < 0.5:  # asinh(s) is at its branch point s = +-j where a = 0
        n_theta = n_sections * cmath.log(a + s)
        flip = False
    else:
        n_theta = n_sections * cmath.asinh(s)
        flip = a.real < 0.0  # theta = j*pi - asinh(s)
    a = cmath.cosh(n_theta)
    u = cmath.sinh(n_theta) / s if s else n_sections
    if flip:
        if n_sections & 1:
            a = -a
        else:
            u = -u
    return a, z_s * u, c_s * u, a


class SweepSummary(namedtuple("SweepSummary", "n_records n_singular dips")):
    """What one pass over a sweep found: n_records and n_singular (int),
    and dips, the list of its TuningDips in ascending frequency order."""

    __slots__ = ()


def summarize(records: Iterable[SweepRecord], length: float, velocity: float) -> SweepSummary:
    """Count one sweep's records and singular records and find its tuning
    dips, in one pass over records in ascending frequency order.

    Only the record under judgement and two magnitudes are held, so memory
    does not grow with the sweep beyond its dips.

    A non-singular record is a dip when its |q_line_mvar| is strictly
    smaller than both neighbours'; the first and last record of the sweep
    need only be smaller than their single neighbour (a tuning point can
    sit exactly on the sweep edge).  Records next to a singular one are
    not dips, since one neighbour is unknown there.  Fewer than 3
    non-singular records give no dips, edges included.

    Each dip is matched to the nearest analytic harmonic n*v/(2*length);
    dips farther than two grid steps (the spacing of the first two
    records) from every harmonic, or whose 2*f*length/v overflows, are
    reported with n_matched = 0.
    """
    n_records = n_singular = 0
    step = None
    found = []
    # |q_line_mvar| of the record under judgement (mid) and of its left
    # neighbour.  A singular record's magnitude is nan and a missing
    # sweep-edge neighbour's is inf, so one test `q < left and q < right`
    # applies all the rules above: every comparison with nan is false, and
    # every finite q is below inf.  q = inf before the first record judges
    # nothing.
    left = q = math.inf
    mid = None
    for n_records, rec in enumerate(records, 1):
        if rec.singular:
            right = math.nan
            n_singular += 1
        else:
            right = abs(rec.q_line_mvar)
        if q < left and q < right:
            found.append(mid)
        if n_records == 2:
            step = rec.f_hz - mid.f_hz
        left, mid, q = q, rec, right
    if n_records - n_singular < 3:
        return SweepSummary(n_records, n_singular, [])
    if q < left:
        found.append(mid)
    dips = [_match(rec, step, length, velocity) for rec in found]
    return SweepSummary(n_records, n_singular, dips)


def _match(rec: SweepRecord, step: float, length: float, velocity: float) -> TuningDip:
    """The dip at rec, matched to the nearest harmonic within two grid steps."""
    try:
        _, nearest = is_tuned(length, Frequency(rec.f_hz), velocity)
        n = nearest.n if abs(rec.f_hz - nearest.value) <= 2.0 * step else 0
    except ValueError:  # 2*f*length/v overflows: no harmonic is near
        n = 0
    return TuningDip(rec.f_hz, n, rec.q_line_mvar)
