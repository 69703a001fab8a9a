"""A clock that counts time at a fixed reference speed of the host.

On a shared host the speed a process gets drifts by a factor of up to two,
over seconds and over minutes, with the load of its neighbours.  Wall time
then says as much about the neighbours as about the program.  This clock
samples the host's current speed while the program runs: every PERIOD_S a
timer signal interrupts the program between bytecodes and times one call of
reference_work(), a fixed piece of pure-Python work of the same kind as the
package's inner loops (dict updates keyed by bit masks, popcounts, modular
products, Fraction sums).  The time between two probes is rescaled by
REF_S over the probes' mean duration; the probes' own time is left out.

So reference_seconds(a, b) is the time the program spent in [a, b] as it
would read on the host running at the speed at which reference_work() takes
REF_S.  A change that makes the program do less work lowers it as it lowers
wall time; a neighbour that slows the whole host down does not raise it.
"""

import bisect
import signal
import time
from fractions import Fraction

clock = time.perf_counter

# Nominal duration of reference_work(): about its median time on a shared
# 2-vCPU 2.0 GHz Intel Xeon host (Python 3.11), so that reference seconds
# read close to wall seconds there.  It only sets the scale: changing it
# would rescale every reported time.
REF_S = 0.004
PERIOD_S = 0.05


def reference_work():
    """A fixed piece of interpreter work."""
    terms = {}
    acc = Fraction(0)
    x = 1
    for i in range(2500):
        mask = (i * 2654435761) & 0xFFFF
        key = mask ^ (mask >> 3)
        terms[key] = terms.get(key, 0) + x % 7 - 3
        x = (x * 48271 + mask) % 1000003
        if bin(mask).count("1") & 1:
            terms.pop(key ^ 1, None)
        if i % 16 == 0:
            acc += Fraction(x % 97 + 1, i % 13 + 1)
    return len(terms), acc


class ReferenceClock:
    """Probes the host's speed while running; see the module docstring.

    Use as a context manager around the timed work, then ask
    reference_seconds(a, b) for spans [a, b] read from time.perf_counter.
    Only one can run at a time: it owns SIGALRM and the real-time timer.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.starts = []
        self.durations = []

    def _probe(self, signum=None, frame=None):
        start = clock()
        reference_work()
        self.starts.append(start)
        self.durations.append(clock() - start)
        if signum is not None:
            # one-shot timer, re-armed after each probe, so probes never nest
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def reference_seconds(self, a, b):
        """Time spent in [a, b] outside the probes, at reference speed."""
        starts, durations = self.starts, self.durations
        n = len(starts)
        total = 0.0
        # gap i runs from the end of probe i-1 to the start of probe i;
        # the first and last gaps are open-ended
        i = bisect.bisect_right(starts, a)
        while True:
            lo = starts[i - 1] + durations[i - 1] if i > 0 else a
            hi = starts[i] if i < n else b
            if lo >= b:
                break
            span = min(hi, b) - max(lo, a)
            if span > 0:
                near = durations[max(i - 1, 0):min(i + 1, n)]
                total += span * REF_S * len(near) / sum(near)
            if i >= n:
                break
            i += 1
        return total

    def probe_stats(self):
        """Count and median duration of the probes, for the run record."""
        ds = sorted(self.durations)
        return {"probes": len(ds), "median_s": ds[len(ds) // 2] if ds else 0.0,
                "reference_s": REF_S}
