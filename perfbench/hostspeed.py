"""Host speed during a run, used to report times at a fixed reference speed.

The benchmark host is shared.  On a 2-core host the same pure-Python loop was
seen running up to 1.6x slower for tens of seconds at a time, in phases that
both cores see at once, so raw medians moved by 20-30% from run to run.
While a run measures, a SIGALRM timer interrupts it every PERIOD seconds and
times LOOPS iterations of a fixed loop (the probe: about 0.15 ms, under 1% of
the run).  A call that ran from t0 to t1 is scaled by REFERENCE / (median
probe time around [t0, t1]): it reads as it would on a host where the probe
takes REFERENCE seconds.  The probe does not depend on the program, so a
change to the program moves scaled times as it moves raw ones.
"""

import bisect
import signal
import statistics
import time


class HostSpeed:
    PERIOD = 0.02
    LOOPS = 4000
    # probe time on an idle 2-core x86-64 host with CPython 3.11
    REFERENCE = 130e-6

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, at the reference speed."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        return (t1 - t0) * self.REFERENCE / statistics.median(self.seconds[lo:hi])
