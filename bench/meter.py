"""Times in reference seconds: wall time scaled by the CPU speed measured alongside.

The benchmark runs on cores shared with other work. On the 2-vCPU Intel Xeon
VM where it was written, the speed one thread got changed by up to 1.7x
within a few seconds, in Python loops and in BLAS products alike, and a
median over a 40 s run still moved by 40% from one run to the next. Wall
time alone could not tell a 10% regression from a busy neighbour.

So while a timed call runs, a SIGALRM every ``INTERVAL_S`` runs a short fixed
probe (a Python loop and some small numpy products) and records how long it
took. The call's time in reference seconds is its wall time less the time of
its probes, times the mean of ``REF_PROBE_S / probe time`` over the probes
taken during it and one taken just before it. On an uncontended core the two
agree; on a contended one the probes slow down with the call and the product
stays put. In trial runs on that VM, per-call spreads of 17-64% in wall
time fell to 3-5%. A change to markovmix does not touch the probe, so a
faster library still shows as fewer reference seconds.
"""

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01

# About the probe's time on an uncontended core of that VM (Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, one thread): 90-120 us there, 160-170 us
# when contended. It only sets the scale: a call timed at the reference
# speed reads its wall time.
REF_PROBE_S = 1.0e-4


@dataclass
class Timing:
    wall_s: float = 0.0  # wall time less the probes' own time
    factor: float = 1.0  # mean of REF_PROBE_S / probe time
    probes: int = 0

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


class SpeedMeter:
    """Measures CPU speed with a fixed probe while a timed call runs.

    Only one call is timed at a time, from the main thread.
    """

    def __init__(self):
        self._matrix = np.random.default_rng(0).random((24, 24))
        self._buffers = (np.empty_like(self._matrix), np.empty_like(self._matrix))
        self._samples: list[float] = []
        self.probe_total = 0.0
        for _ in range(50):
            self._work()

    def _work(self) -> None:
        # Writes into preallocated buffers, so that the probe adds next to
        # nothing to the peaks of a tracemalloc pass.
        x = 0
        for i in range(400):
            x += i * i
        a = self._matrix
        b, c = self._buffers
        np.copyto(b, a)
        for _ in range(20):
            np.matmul(a, b, out=c)
            np.divide(c, c.sum(), out=b)

    def _probe(self, *_) -> None:
        start = perf_counter()
        self._work()
        took = perf_counter() - start
        self.probe_total += took
        self._samples.append(took)

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in probes so far."""
        return perf_counter() - self.probe_total

    @contextmanager
    def timing(self):
        """Time the body; the yielded :class:`Timing` is filled in on exit."""
        timing = Timing()
        self._samples = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = self.clock()
        try:
            yield timing
        finally:
            end = self.clock()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            timing.wall_s = end - start
            timing.factor = statistics.fmean(REF_PROBE_S / s for s in self._samples)
            timing.probes = len(self._samples)
