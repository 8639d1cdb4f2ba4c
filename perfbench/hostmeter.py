"""Host-speed meter: rescales measured times to a nominal host speed.

The benchmark runs on shared machines whose speed drifts by up to about
2x over tens of seconds, for every process alike (other tenants of the
physical cores), so raw wall times of one run say more about the host
than about the program.  While a run measures, a SIGALRM timer fires
every PERIOD_S and the handler times a fixed pure-Python reference
computation in the worker's own thread.  A measured interval is then
reported as

    (wall time - time spent in the handler) * NOMINAL_S / mean reference time

over the samples taken during the interval widened by WINDOW_S on each
side, i.e. the seconds it would have taken on a host where the
reference takes NOMINAL_S.  The handler's own time never counts.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
# Host phases last seconds, so a short request is judged by the samples
# of the half second around it rather than by the one or two inside it.
WINDOW_S = 0.25
# Reference time on an uncontended vCPU of the 2.0 GHz machine the
# baseline in README.md was measured on; a constant, so it only sets the
# scale of the reported seconds.
NOMINAL_S = 0.0004


def reference():
    """Fixed work of the kind the program does: tuples, dicts, sets, ints."""
    counts = {}
    seen = set()
    total = 0
    for i in range(600):
        key = (i % 13, i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key[0] * key[1] - key[2])
        total += sum(key) * i
    return total + len(seen) + len(counts)


class HostMeter:
    def __init__(self):
        self.starts = []      # sample start times, increasing
        self.durations = []   # reference durations
        self.spent = 0.0      # total time spent in the handler

    def _sample(self, signum, frame):
        began = time.perf_counter()
        reference()
        took = time.perf_counter() - began
        self.starts.append(began)
        self.durations.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """perf_counter with the handler's time taken out (for spans)."""
        return time.perf_counter() - self.spent

    def mark(self):
        return time.perf_counter(), self.spent

    def nominal(self, begin, end):
        """Nominal seconds between two mark() readings."""
        lo = bisect.bisect_left(self.starts, begin[0] - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end[0] + WINDOW_S)
        if lo == hi:  # a long native call delayed the timer: nearest samples
            lo, hi = max(0, lo - 1), min(len(self.starts), lo + 1)
        net = (end[0] - begin[0]) - (end[1] - begin[1])
        return net * NOMINAL_S / statistics.fmean(self.durations[lo:hi])

    def slowdown(self):
        """Median reference time over NOMINAL_S for the whole run."""
        return statistics.median(self.durations) / NOMINAL_S if self.durations else 0.0
