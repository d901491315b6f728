"""Reference-speed scaling for the end-to-end times.

The benchmark was defined on a 2-core virtual machine on a shared host.
Its speed changes by up to a factor of two from one minute to the next, as
other tenants load the physical cores: the same import took 0.21 s in one
run and 0.42 s in another, each steady within its own run.  No statistic
of the wall times inside a 20-s run removes that, so over five seeds the
wall-time throughputs spread by 13-34% of their median.

So a fixed reference loop, which calls nothing from the package, is timed
between the package's calls, and each call's wall time is multiplied by
``REFERENCE_S / r``, where ``r`` is the mean reference time around the
call.  The scaled times read as times on a machine of constant speed, on
which the reference loop takes ``REFERENCE_S``.  The loop mixes what the
package spends its time on: interpreted Python, float math calls, small
NumPy operations and small matrix-vector products.  The raw wall times are
printed and kept in the full result next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the loop's median time on the machine the benchmark was defined on, so
# that scaled times there read close to its wall times
REFERENCE_S = 0.0036
SHARE = 0.15          # the loop runs for this share of the time between bursts
MIN_GAP_S = 0.2       # a burst runs once this long has passed since the last
MIN_WINDOW_S = 1.0    # reference samples this close to a call scale it
MIN_SAMPLES = 10

_SMALL = np.arange(64.0)
_MAT = np.random.default_rng(0).random((101, 101)) / 101.0
_VEC = np.ones(101)


def reference_loop() -> float:
    """One fixed unit of work that uses no code of the package."""
    s = 0
    for i in range(9000):
        s += (i * 7) % 13
    x = 0.0
    for i in range(5000):
        x += math.exp(-i * 1e-4)
    v = _SMALL
    for _ in range(300):
        v = np.minimum(v + 1.0, 50.0)
    w = _VEC
    for _ in range(170):
        w = _MAT @ w
        w = w / w[0]
    return s + x + float(v[0] + w[0])


class SpeedProbe:
    """Times the reference loop between calls and scales call times."""

    def __init__(self):
        self.samples = []   # (midpoint, seconds) of every timed reference run
        self._last = None   # end of the last burst of reference runs

    def sample(self, at_least_s: float = 0.0) -> None:
        """Run the reference loop until ``at_least_s`` is spent, at least once.

        A first, untimed run refills the caches that the call before
        emptied, so the timed runs measure the machine, not the call.
        """
        reference_loop()
        spent = 0.0
        while spent == 0.0 or spent < at_least_s:
            t0 = time.perf_counter()
            reference_loop()
            elapsed = time.perf_counter() - t0
            self.samples.append((t0 + elapsed / 2, elapsed))
            spent += elapsed
        self._last = time.perf_counter()

    def after_call(self) -> None:
        """Run a burst once MIN_GAP_S has passed since the last one."""
        since = time.perf_counter() - self._last
        if since >= MIN_GAP_S:
            self.sample(SHARE * since)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time around [start, end].

        The machine switches between a fast and a slow state within a
        second, so reference times fall in two clusters.  A call's time
        averages over the states it ran in, and so does the mean of the
        reference times; their median would jump between the clusters.
        """
        window = max(end - start, MIN_WINDOW_S)
        near = [s for t, s in self.samples if start - window <= t <= end + window]
        if len(near) < MIN_SAMPLES:
            by_distance = sorted(self.samples, key=lambda ts: abs(ts[0] - (start + end) / 2))
            near = [s for _, s in by_distance[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(near)

    def scaled(self, start: float, elapsed_s: float) -> float:
        return elapsed_s * self.factor(start, start + elapsed_s)
