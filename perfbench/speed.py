"""Scaling of measured times to a fixed reference speed.

On the shared host the benchmark was defined on (2 vCPUs of an Intel
Xeon), the speed one process sees drifts by +-25% over a few seconds for
the same work, in CPU time as much as in wall time. A ``SpeedProbe`` times
small fixed kernels at least every ``PROBE_EVERY_S`` between calls; a
call's time is divided by the kernels' slowness (their time over their
reference time, as a median within ``PROBE_WINDOW_S`` of the call). Times
are thus reported at the reference speed, at which the kernels take
``REFERENCE_S``.

Each workload names the kernels that resemble its own work, because a
kernel tracks the drift best on work like its own (measured over 7 s
windows, the spread of work time over kernel time was 4.2% for
``dp-exact`` with ``dp`` against 6.0% with a numpy-slicing loop, and 2.7%
for ``cli-scan`` with ``py`` against 6.6% with ``dp``; 17% and 12%
unscaled). The kernels share no code with gbv.
"""

import time

import numpy as np

#: longest stretch of calls between two kernel timings
PROBE_EVERY_S = 0.1
#: a call's slowness is the median of the probes within this many seconds
PROBE_WINDOW_S = 0.5

_VALUES = np.cumsum(np.random.default_rng(4).integers(-2, 3, 49)) / 4.0


def dp_kernel():
    """Max-plus table over 48 cells and 8 counts, numpy rows in Python loops."""
    v = _VALUES
    m, depth = len(v) - 1, 8
    best = np.zeros((m + 2, depth + 1))
    for i in range(m - 1, -1, -1):
        ends = np.arange(i + 1, m + 1)
        gains = np.abs(v[ends] - v[i]) ** 2
        for k in range(1, depth + 1):
            best[i, k] = max(best[i + 1, k], np.max(gains + best[ends, k - 1]))
    return best[0, depth]


def py_kernel():
    """Plain interpreter arithmetic."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


KERNELS = {"dp": dp_kernel, "py": py_kernel}
#: kernel times at the reference speed (typical on the host named above)
REFERENCE_S = {"dp": 0.0025, "py": 0.0015}


class SpeedProbe:
    """Slowness samples over time, and the scaling of call times by them."""

    def __init__(self, kernels):
        self.kernels = [(KERNELS[name], REFERENCE_S[name]) for name in kernels]
        self.reference = sum(ref for _, ref in self.kernels)
        self.points = []  # (midpoint, slowness)

    def sample(self, repeats=2):
        """Time each kernel (fastest of ``repeats``); record and return the
        slowness, their summed time over their summed reference time."""
        start, spent = time.perf_counter(), 0.0
        for kernel, _ in self.kernels:
            best = None
            for _ in range(repeats):
                t = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t
                best = dt if best is None else min(best, dt)
            spent += best
        slowness = spent / self.reference
        self.points.append(((start + time.perf_counter()) / 2, slowness))
        return slowness

    def due(self):
        return not self.points or time.perf_counter() - self.points[-1][0] >= PROBE_EVERY_S

    def scale(self, timings):
        """Seconds at the reference speed for (midpoint, seconds) timings."""
        at, slowness = (np.array(v) for v in zip(*self.points))
        scaled = []
        for mid, dt in timings:
            # the window, widened to the probes just before and after the call
            i = np.searchsorted(at, mid)
            lo = min(np.searchsorted(at, mid - PROBE_WINDOW_S), max(i - 1, 0))
            hi = max(np.searchsorted(at, mid + PROBE_WINDOW_S), i + 1)
            scaled.append(dt / float(np.median(slowness[lo:hi])))
        return scaled
