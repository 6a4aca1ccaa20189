"""How fast the machine runs right now, from a fixed burst of Python work.

The machine this benchmark runs on is shared: its CPU throughput swings by up
to a factor of two over seconds to minutes, with the load of its neighbours,
and a job's wall and CPU time swing with it.  So every timed child is also
sampled with a fixed burst of work: the parent times bursts just before it
spawns the child and just after the child exits, and the child times one
every PERIOD_S seconds from a timer signal, from before it imports the
program to its end.  The mean burst time over a child's life, against
NOMINAL_S, says how much slower than nominal the machine ran while the child
did; run.py divides the child's times by it.

The burst touches nothing of the program under test, so no change to the
program changes it.
"""

import signal
import statistics
import time

# Seconds between two bursts inside a child.  One burst costs about 0.3 ms,
# so the sampler adds about 1.5% to a child, the same for every version of
# the code; the speed swings within a second, so the samples must be dense.
PERIOD_S = 0.02

# The burst time that counts as nominal speed.  It fixes only the scale: a
# normalised time is the time the child would have taken on a machine that
# runs one burst in NOMINAL_S seconds, about what a core of a shared 2-vCPU
# Xeon VM does with CPython 3.11 in its usual phases.
NOMINAL_S = 0.00025

# Bursts the parent times just before a spawn and just after an exit.
PROBE_BURSTS = 5

# Share of the lowest and of the highest bursts left out of a child's mean:
# a burst that the scheduler cut in two, or that ran alone on an idle core,
# says little about the run as a whole.
TRIM = 0.1


def burst():
    """Wall and CPU seconds taken by one fixed burst of dict, tuple and
    integer work."""
    start, cpu = time.perf_counter(), time.thread_time()
    table = {}
    for i in range(750):
        key = (i * 7919) % 251, i & 7
        table[key] = table.get(key, 0) + i
    sum(v % 13 for v in table.values())
    return time.perf_counter() - start, time.thread_time() - cpu


def probe():
    """PROBE_BURSTS bursts in a row: the speed at one moment."""
    return [burst() for _ in range(PROBE_BURSTS)]


class Sampler:
    """Times a burst every PERIOD_S seconds from SIGALRM, in this process."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(burst())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.samples


def trimmed_mean(values):
    """Mean of values without the lowest and highest TRIM of them."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


def slowdown(samples):
    """How much slower than nominal the machine ran over a child's life, as
    (wall, CPU) factors, from the trimmed mean burst over its samples."""
    return tuple(trimmed_mean(x) / NOMINAL_S for x in zip(*samples))
