"""Wall times scaled to a fixed reference speed, for a host whose speed drifts.

On two shared cores the same ``large_n`` sweep took anywhere from 0.32 to
0.53 s within four minutes, and all solves slow down and speed up together.  No
estimator over one run (median, minimum, best sweep) removes that drift.
So every timed interval is measured against a reference kernel, a fixed
piece of work of the same kind, sampled all through the run:

* a timer signal runs the kernel every few tens of milliseconds (its
  period is in ``KERNELS``), in the main thread, between two bytecodes of
  whatever is being timed; it runs the kernel twice and times the second
  call, so that the sample sees the machine's speed and not whatever the
  timed code left in the cache;
* an interval's own time is its wall time minus the kernel samples that
  ran inside it;
* that own time is divided by the median kernel time sampled inside the
  interval (or by the samples on either side of it, when it was too short
  to hold one) and multiplied by the kernel's nominal time.  The median
  ignores the odd sample that the host preempted.

The result reads in seconds at the speed the nominal kernel times were
measured at.  The kernels are this file's own code, so a change to the
library moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

WARMUP_SAMPLES = 20


def python_kernel():
    """Interpreter loop plus small numpy calls: the regime of solver overhead."""
    v = np.sin(np.arange(1.0, 21.0))
    m = np.cos(0.37 * np.outer(np.arange(1.0, 21.0), np.arange(1.0, 7.0)))

    def kernel():
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        for _ in range(20):
            np.linalg.qr(m)
            float(v @ v)
            float(np.max(np.abs(v)))
        return s
    return kernel


def blas_kernel():
    """Products with a 24 MB matrix and its transpose, the logistic gradient's shape."""
    a = np.arange(3e6).reshape(3000, 1000)
    np.cos(np.multiply(a, 1e-3, out=a), out=a)
    x = np.sin(np.arange(1.0, 1001.0))
    y = np.cos(np.arange(1.0, 3001.0))

    def kernel():
        a @ x
        y @ a
    return kernel


# kernel factory, the typical time of the kernel's timed call on a 2-core
# x86_64 host (py 3.11, numpy 2.4, OpenBLAS 0.3.31, 1 BLAS thread), and the
# sampling period; the slower kernel is sampled less often, so that samples
# take under a tenth of the run
KERNELS = {
    "python": (python_kernel, 1.0e-3, 0.025),
    "blas": (blas_kernel, 2.1e-3, 0.05),
}


class SpeedProbe:
    """Samples a reference kernel on a timer; scales intervals by its speed."""

    def __init__(self, kind: str):
        make_kernel, self.nominal_s, self.period_s = KERNELS[kind]
        self.kernel = make_kernel()
        self.starts = []        # start time of each kernel sample
        self.spans = []         # its duration, warm-up call included
        self.durations = []     # the duration of its timed call
        self._previous = None
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick that lands inside a slow sample is dropped
            return
        self._busy = True
        try:
            start = perf_counter()
            self.kernel()  # brings the kernel's data back into cache
            timed = perf_counter()
            self.kernel()
            end = perf_counter()
            self.starts.append(start)
            self.spans.append(end - start)
            self.durations.append(end - timed)
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(WARMUP_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled_s(self, start: float, end: float) -> float:
        """Seconds at reference speed for the interval ``[start, end]``.

        Call it after the probe has stopped, so that the samples after a
        short interval exist.  A sample runs to its end before the timed
        code goes on, so one that starts inside the interval lies wholly
        inside it.
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        inside = self.durations[i:j]
        own = end - start - sum(self.spans[i:j])
        speed = inside or self.durations[max(i - 1, 0):i + 1]
        return own / statistics.median(speed) * self.nominal_s
