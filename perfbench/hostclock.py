"""Timing corrected for the speed of the host at the moment of measurement.

The benchmark's reference machine is a 2-vCPU Xeon virtual machine that
shares its physical cores with other tenants.  Its speed switches between
two states about 1.5x apart (a fixed pure-Python loop takes 21 ms or
32 ms), and a state holds from under a second to over a minute, so the same
pass of diag-pit took 1.1 s in one run and 2.1 s in the next.  Longer runs
cannot average that away.

So the benchmark measures the host alongside the program: a fixed
calibration kernel, which does not touch ``conepit``, runs between ops at
least every ``CAL_EVERY_S`` seconds.  Each op's wall time is multiplied by
``REFERENCE_S`` over the mean of the calibrations just before and just after
it.  Reported times are reference seconds: the time the op would take on a
host where the kernel runs in ``REFERENCE_S``.  Raw wall times are kept in
the report line next to them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: kernel time that defines a reference second (its time on the reference
#: machine in its fast state)
REFERENCE_S = 0.0004
CAL_EVERY_S = 0.05

_P = (1 << 61) - 1
_A = np.arange(256, dtype=np.uint64)


def _kernel():
    # the same kinds of work as the program: big-int modular arithmetic,
    # Fractions, tuple-keyed dicts and small numpy arrays
    x = 1
    for i in range(400):
        x = (x * 6364136223846793005 + i) % _P
    s = Fraction(0)
    for i in range(1, 30):
        s += Fraction(i, i + 3) * Fraction(3, i + 1)
    d: dict = {}
    for i in range(200):
        t = (i % 7, i % 5, i % 3)
        d[t] = d.get(t, 0) + i
    a = _A
    for _ in range(30):
        a = (a * np.uint64(3) + np.uint64(1)) & np.uint64(0xFFFFFFFF)
    return x, s, d, a


def calibrate() -> float:
    """Kernel time in seconds, the faster of two runs (an interrupt lands in
    at most one of them)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Collects wall times of consecutive ops, calibrating between them."""

    def __init__(self):
        self.cal = [calibrate()]
        self._last = time.perf_counter()
        self._raw: list[tuple[float, int]] = []  # (wall seconds, calibration before)

    def add(self, wall_s: float) -> None:
        self._raw.append((wall_s, len(self.cal) - 1))
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self._last = time.perf_counter()

    def raw(self) -> list[float]:
        return [w for w, _ in self._raw]

    def scaled(self) -> list[float]:
        """Reference seconds of every op added, in order."""
        if self._raw and self._raw[-1][1] == len(self.cal) - 1:
            self.cal.append(calibrate())
            self._last = time.perf_counter()
        return [w * 2 * REFERENCE_S / (self.cal[m] + self.cal[m + 1]) for w, m in self._raw]

    def slowdown(self) -> float:
        """Median kernel time over REFERENCE_S: how slow the host ran."""
        return statistics.median(self.cal) / REFERENCE_S
