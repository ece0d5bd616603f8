"""Host pace: how fast this host runs plain Python at the moment.

The benchmark shares its cores with other tenants, and the same code
runs up to 2x slower or faster from one second to the next and from one
minute to the next (sibling hyperthreads and clock speed are not ours).
Whole-run medians of wall time then move between runs by more than a
code change worth seeing.

``pace()`` times a fixed piece of pure Python that does not touch gsl,
shaped like gsl's inner loops (dicts keyed by tuples, digit arithmetic,
small function calls), and returns its wall time over ``QUIET_S``.  A
``Sampler`` takes such a reading every ``INTERVAL_S`` of wall time from
a timer signal, inside long jobs as well as between short ones, and
keeps a clock that leaves out the time spent taking them.  The runner
divides each job's time by the mean pace read while it ran.  A change to
gsl moves the jobs and not the reference, so it shows in full; a slow
spell on the host moves both and cancels.
"""

import bisect
import signal
import time

clock = time.perf_counter

# Seconds between readings: about 50 readings in a 6-second job, for a
# cost of about 7 % of the run.
INTERVAL_S = 0.1

# Wall time of one reference() when the host was at its fastest, on a
# 2-vCPU Intel Xeon VM under CPython 3.11.7.  Scaled times read as
# seconds on that host at that speed.
QUIET_S = 0.005

_P = 3


def _digit_add(a, b):
    code, shift = 0, 1
    while a or b:
        code += ((a + b) % _P) * shift
        a //= _P
        b //= _P
        shift *= _P
    return code


def reference():
    """A fixed amount of work; returns a checksum so none of it is idle."""
    acc = {}
    for i in range(80):
        for j in range(50):
            m = (i % 7 + j % 5, (i * j) % 11)
            s = _digit_add(acc.get(m, 0), i * 31 + j)
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return sum(acc.values())


CHECKSUM = reference()


def pace():
    """Wall time of one reference() now, over QUIET_S (above 1 when slow)."""
    t0 = clock()
    out = reference()
    dt = clock() - t0
    if out != CHECKSUM:
        raise RuntimeError("pace reference gave %r, not %r" % (out, CHECKSUM))
    return dt / QUIET_S


class Sampler(object):
    """Pace readings every INTERVAL_S while the ``with`` block runs.

    Readings run in a SIGALRM handler, between two bytecodes of whatever
    the main thread is doing.  ``clock()`` is perf_counter less the time
    spent in readings, so a job timed with it does not pay for them.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.times = []   # clock() at each reading
        self.paces = []
        self._old = None

    def clock(self):
        while True:  # retry if a reading ran between the two reads
            spent = self.spent
            now = clock()
            if spent == self.spent:
                return now - spent

    def _read(self, signum, frame):
        t0 = clock()
        p = pace()
        self.times.append(t0 - self.spent)
        self.paces.append(p)
        self.spent += clock() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def pace_during(self, t0, t1):
        """Mean pace read between clock() times t0 and t1; for a span too
        short to hold a reading, the mean of the nearest reading before
        it and the nearest after."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            inside = self.paces[lo:hi]
        else:
            inside = self.paces[max(lo - 1, 0):lo + 1]
        if not inside:
            raise RuntimeError("no pace readings were taken")
        return sum(inside) / len(inside)
