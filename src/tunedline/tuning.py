"""Tuned-line condition solvers.

A line is tuned when its electrical length w*l*sqrt(LC) is an integer
multiple of pi; the receiving-end voltage and current magnitudes then
equal the sending-end ones.  With wave velocity v = 1/sqrt(LC) this gives
two closed forms:

    tuned length     l_n = n * v / (2 * f)     for a given frequency
    tuning frequency f_n = n * v / (2 * l)     for a given length

Both directions are solved here, plus a classifier for how close an
arbitrary (length, frequency) pair sits to the nearest harmonic.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .linemodel import Frequency, _check_length

__all__ = [
    "DEFAULT_VELOCITY_KM_S",
    "TuningSolution",
    "tuned_lengths",
    "tuning_frequencies",
    "is_tuned",
]

# Wave velocity of the default line profile, km/s (idealized speed of light).
DEFAULT_VELOCITY_KM_S = 3.0e5
# How far 2*f*l/v may lie from an integer n >= 1 for is_tuned to call the pair tuned.
TUNED_TOL = 1e-6


class TuningSolution(namedtuple("TuningSolution", "n value")):
    """Harmonic index n (int) with its tuned frequency (float, Hz) or tuned
    length (float, km)."""

    __slots__ = ()


def _check_velocity(velocity: float) -> None:
    if not (math.isfinite(velocity) and velocity > 0.0):
        raise ValueError("velocity must be positive and finite")


def _scaled_ratio(a: float, b: float, c: float, e: int) -> float:
    """2**e * a * b / c, or inf when that overflows.

    The mantissas are multiplied and divided and the exponents applied
    once, so no intermediate overflows or underflows.  Where no step of
    the expression itself would, the result has its bits.
    """
    (ma, ea), (mb, eb), (mc, ec) = map(math.frexp, (a, b, c))
    try:
        return math.ldexp(ma * mb / mc, ea + eb - ec + e)
    except OverflowError:
        return math.inf


def _harmonic(n: int, velocity: float, x: float) -> TuningSolution:
    # n*v/(2x): a tuned length (km) for a frequency x, a tuning frequency (Hz) for a length x
    return TuningSolution(n, _scaled_ratio(n, velocity, x, -1))


def _harmonics(x: float, velocity: float, n_max: int, what: str) -> list[TuningSolution]:
    """_harmonic for n = 1..n_max, after checking velocity and n_max.

    Raises ValueError, naming `what`, when a value leaves the float range.
    """
    _check_velocity(velocity)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    solutions = [_harmonic(n, velocity, x) for n in range(1, n_max + 1)]
    # n*v/(2x) grows with n, so the last solution is the largest
    if not math.isfinite(solutions[-1].value):
        raise ValueError(f"{what} is out of float range")
    return solutions


def tuned_lengths(
    freq: Frequency, velocity: float = DEFAULT_VELOCITY_KM_S, n_max: int = 3
) -> list[TuningSolution]:
    """Tuned line lengths n*v/(2f) in km for n = 1..n_max.

    Raises ValueError when a length leaves the float range.
    """
    return _harmonics(freq.f, velocity, n_max, f"tuned length at frequency {freq.f!r} Hz")


def tuning_frequencies(
    length: float, velocity: float = DEFAULT_VELOCITY_KM_S, n_max: int = 3
) -> list[TuningSolution]:
    """Tuning frequencies n*v/(2l) in Hz for n = 1..n_max.

    Raises ValueError when a frequency leaves the float range.
    """
    _check_length(length)
    return _harmonics(length, velocity, n_max, f"tuning frequency for length {length!r} km")


def is_tuned(
    length: float, freq: Frequency, velocity: float = DEFAULT_VELOCITY_KM_S
) -> tuple[bool, TuningSolution]:
    """Classify a (length, frequency) pair against the tuning condition.

    The pair is tuned when 2*f*l/v is within TUNED_TOL of an integer n >= 1.
    Also returns the nearest tuning frequency as a TuningSolution (with n
    clamped to 1, since n = 0 is no line at all).  Raises ValueError when
    2*f*l/v is itself out of float range.
    """
    _check_velocity(velocity)
    _check_length(length)
    x = _scaled_ratio(freq.f, length, velocity, 1)
    if math.isinf(x):
        raise ValueError("2*f*length/velocity is out of float range")
    nearest_int = round(x)
    tuned = nearest_int >= 1 and abs(x - nearest_int) <= TUNED_TOL
    n = max(1, nearest_int)
    return tuned, _harmonic(n, velocity, length)
