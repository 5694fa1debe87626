"""Host-speed calibration of a timed region.

The benchmark's host is a few cores of a shared machine, and its speed
drifts by up to 1.7x over tenths of a second to minutes: a fixed loop's
CPU time drifts as much as its wall time, so the process is slowed while
it runs, not descheduled. Raw wall times of identical passes therefore
spread by about a quarter.

`SpeedProbe` measures that speed while the pass runs. Every PERIOD_S
seconds a SIGALRM handler times a fixed loop in the
same thread, with the garbage collector off, so the loop never pays for a
collection whose cost depends on the pass's heap. Between two samples
the host is taken to run at the median speed of the nearby samples, and
time at that speed is converted to time at the reference speed, where one
loop takes REF_LOOP_S seconds:

    calibrated = sum over the stretches between samples of
                 stretch * REF_LOOP_S / loop time near the stretch

The loops' own time is left out. A calibrated time is thus the time the
same work takes on this host when it runs at reference speed; it assumes
the timed region runs in this one thread.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from operator import add

PERIOD_S = 0.025          # sampling period of a pass
SETUP_PERIOD_S = 0.01     # sampling period of a worker's ~0.1-s set-up
# Reference loop time: about the loop's time on an unloaded 2-CPU x86-64
# host under CPython 3.11. It only sets the scale of calibrated seconds.
REF_LOOP_S = 3.6e-4
SMOOTH = 2                # a sample's speed is the median of +-SMOOTH samples

# Exponent vectors of 10 variables, as detlink's monomials are.
_MONOMIALS = [tuple((i * j) % 5 for j in range(10)) for i in range(40)]


def _loop() -> int:
    """Monomial products accumulated in a dict, like polynomial
    multiplication; this tracked the host's speed more closely than an
    integer-only loop."""
    terms = {}
    for a in _MONOMIALS:
        for b in _MONOMIALS[:12]:
            m = tuple(map(add, a, b))
            terms[m] = terms.get(m, 0) + a[0] * b[1] + 1
    return len(terms)


class SpeedProbe:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.t_called = self.t_start = self.t_end = 0.0
        self._loop0 = 0.0
        self._segments: list[tuple[float, float, float]] = []

    def _handler(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _loop()
        self.samples.append((t0, time.perf_counter()))
        if enabled:
            gc.enable()

    def start(self) -> None:
        self.t_called = time.perf_counter()
        for _ in range(3):           # warm the loop before timing it
            _loop()
        self._handler(None, None)
        self.t_start = self.samples[-1][1]
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.t_end = time.perf_counter()
        self._handler(None, None)
        self._index()

    def _index(self) -> None:
        raw = [b - a for a, b in self.samples]
        loop = [statistics.median(raw[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i in range(len(raw))]
        self._loop0 = loop[0]
        # (start, end, loop time) of every stretch between two samples.
        self._segments = [
            (self.samples[i][1], self.samples[i + 1][0],
             (loop[i] + loop[i + 1]) / 2)
            for i in range(len(self.samples) - 1)]

    def lead_in(self, since: float) -> float:
        """Calibrated seconds of [since, start()], taken to run at the speed
        of the first samples; the warm-up loops are left out."""
        return (self.t_called - since) * REF_LOOP_S / self._loop0

    def calibrated(self, a: float | None = None, b: float | None = None) -> float:
        """Calibrated seconds of [a, b] (perf_counter stamps; default: the
        whole probed region), calibration loops excluded."""
        a = self.t_start if a is None else a
        b = self.t_end if b is None else b
        total = 0.0
        for s, e, loop in self._segments:
            overlap = min(e, b) - max(s, a)
            if overlap > 0:
                total += overlap * REF_LOOP_S / loop
        return total
