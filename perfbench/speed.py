"""Machine-speed gauge: scales measured times to a reference CPU speed.

On a shared host the CPU's speed drifts by up to 2x over seconds to
minutes, in both wall and CPU time, so the raw median of a run depends on
when it ran.  A fixed pure-Python loop (complex arithmetic, float
formatting, small objects, a dict and a sort, the mix a sweep runs) is
timed right before and right after every measured interval, and the
interval is scaled by REFERENCE_S / (mean of the two calibrations).
A slower program still reads slower; a slower machine does not.
"""

from __future__ import annotations

import time

# Calibration time on the reference machine (a shared 2-vCPU x86-64 host,
# CPython 3.11, in its faster state).  Scaled times are "seconds on that
# machine".
REFERENCE_S = 0.0035
REPEATS = 3


class _Point:
    __slots__ = ("f", "z")

    def __init__(self, f: float, z: complex):
        self.f = f
        self.z = z


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = 0j
    points = []
    for i in range(4000):
        z = complex(i * 0.5, 1.0 / (i + 1))
        acc = acc * 0.999 + z * z.conjugate()
        points.append(_Point(float(i), acc))
    text = [format(abs(p.z), ".17g") for p in points[::4]]
    sorted({t: len(t) for t in text}.items())
    return time.perf_counter() - start


class Gauge:
    """Call mark() before a measured interval and factor() right after it."""

    def __init__(self) -> None:
        self.before = self.measure()

    @staticmethod
    def measure() -> float:
        return min(_calibration_loop() for _ in range(REPEATS))

    def mark(self) -> None:
        self.before = self.measure()

    def factor(self) -> float:
        """Multiplier from this interval's wall seconds to reference seconds."""
        after = self.measure()
        return REFERENCE_S / ((self.before + after) / 2.0)
