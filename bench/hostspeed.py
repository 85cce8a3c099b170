"""How fast the host lets this process run, sampled while ops run.

On a shared host the same op can take twice as long from one second to the
next, because other tenants compete for the core; CPU time grows with wall
time, so it does not help. A fixed probe (a short sum of Fractions, the kind
of work the calculator does) is timed once before and once after every op,
and every INTERVAL_S seconds during it from a timer signal. A probe that
took ``d`` seconds ran at speed ``REFERENCE_PROBE_S / d`` relative to the
reference speed.

An op's latency is reported at the reference speed: its wall time, less the
probes that ran inside it, times the mean speed of its probes. That is the
op's cost in probe units, written in seconds of a host on which the probe
takes REFERENCE_PROBE_S. The raw wall times are kept as well.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Seconds between probes while an op runs.
INTERVAL_S = 0.005
#: Terms of the probe's harmonic sum.
PROBE_TERMS = 60
#: Probe time at the reference speed: the fastest probes of Python 3.11 seen
#: on the 2-vCPU Xeon host of the first numbers in README.md took 99-117 us. A constant, rather than each run's fastest probe, keeps that
#: spread out of the results.
REFERENCE_PROBE_S = 105e-6


def _probe_work() -> Fraction:
    s = Fraction(0)
    for i in range(1, PROBE_TERMS):
        s += Fraction(1, i)
    return s


class HostSpeed:
    """Times probes and ops. With ``interval=None`` it only times ops."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []  # duration of every probe
        self.spent = 0.0  # seconds spent in probes
        self._busy = False

    def probe(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        _probe_work()
        d = time.perf_counter() - t0
        self.times.append(d)
        self.spent += d
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick during a probe would be timed inside it
            self.probe()

    def start(self) -> None:
        if self.interval is not None:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, call) -> tuple[float, float | None]:
        """Run ``call()``; return its wall time less the probe time inside it,
        and the mean of 1/d over the probes before, during and after it
        (None when not probing)."""
        if self.interval is None:
            t0 = time.perf_counter()
            call()
            return time.perf_counter() - t0, None
        self.probe()
        first = len(self.times) - 1
        spent = self.spent
        t0 = time.perf_counter()
        call()
        t1 = time.perf_counter()
        inside = self.spent - spent
        self.probe()
        window = self.times[first:]
        return t1 - t0 - inside, sum(1 / d for d in window) / len(window)

    def summary(self) -> dict:
        ordered = sorted(self.times)
        return {
            "probes": len(ordered),
            "probe_min_s": ordered[0] if ordered else None,
            "probe_median_s": ordered[len(ordered) // 2] if ordered else None,
            "probe_spent_s": self.spent,
            "pace": sum(1 / d for d in ordered) / len(ordered) if ordered else None,
        }
