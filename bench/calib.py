"""Host-speed calibration: job times expressed at a fixed reference speed.

On a shared virtual machine the CPU a job gets changes speed from one
second to the next, by up to about 1.9x on the host these workloads were
tuned on, as other tenants come and go. Wall time then measures the
neighbours as much as the program. So a timed job stops every
SEGMENT_S of work to run a short fixed kernel (`kernel`, which calls no
irsec code), and each stretch of work between two kernel runs is scaled
by REFERENCE_S over the kernel times around it:

    normalized = wall time of the work * REFERENCE_S / local kernel time

A normalized time is the time the work would take on a host on which
the kernel takes REFERENCE_S. The kernel time itself is excluded. A
change to irsec moves normalized times as it moves wall time, since the
kernel does not depend on irsec; a slower or busier host moves them far
less than it moves wall time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from spans import patch

# Kernel time at the reference speed: about its time on an idle core of
# the 2 GHz Xeon virtual machine the benchmark was tuned on.
REFERENCE_S = 1.5e-3

# Work between two kernel runs, at least.
SEGMENT_S = 0.02

# Calls around which a calibrated job may stop for the kernel: a sweep
# row, the oracle and the samplers' per-chunk draws. A name the program
# no longer has is skipped; segments then only get longer.
MARK_POINTS = {
    "sweeps": ("_run_row",),
    "mcoracle": ("simulate_service", "empirical_ec"),
    "channel": ("sample_siso_snr", "sample_miso_snr", "_rayleigh", "_standard_complex"),
}

_DATA = np.random.default_rng(12345).standard_normal(1 << 15)


def kernel() -> float:
    """Fixed mixed work, scalar Python and numpy, like the workloads."""
    x = 0.0
    for i in range(1, 6000):
        x += math.log(i) * math.sqrt(i)
    a = np.sort(_DATA * 1.0001)
    return x + float(np.exp(-a * a).sum())


def kernel_time() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_sample(n: int = 5) -> list[float]:
    """n kernel times, after one discarded warm-up run."""
    kernel()
    return [kernel_time() for _ in range(n)]


class SpeedClock:
    """Splits a timed region into work segments and scales each one.

    start() and stop() bound the region; mark() may be called as often
    as convenient and runs the kernel only once SEGMENT_S of work has
    passed. With calibrate=False it only keeps wall time (traced jobs).
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.segments: list[tuple[float, float]] = []
        self.cals: list[float] = []
        self._seg_start = 0.0

    def start(self) -> float:
        if self.calibrate:
            self.cals += speed_sample(1)
        self._seg_start = time.perf_counter()
        return self._seg_start

    def mark(self) -> None:
        if not self.calibrate:
            return
        now = time.perf_counter()
        if now - self._seg_start >= SEGMENT_S:
            self.segments.append((self._seg_start, now))
            self.cals.append(kernel_time())
            self._seg_start = time.perf_counter()

    def stop(self) -> float:
        now = time.perf_counter()
        self.segments.append((self._seg_start, now))
        if self.calibrate:
            self.cals.append(kernel_time())
        return now

    def factors(self) -> list[float]:
        """Per segment: REFERENCE_S over the median of the 4 nearest kernel times."""
        if not self.calibrate:
            return [1.0] * len(self.segments)
        # segment i lies between kernel runs i and i + 1
        return [REFERENCE_S / statistics.median(self.cals[max(0, i - 1):i + 3])
                for i in range(len(self.segments))]

    def durations(self, intervals, normalized: bool = True) -> list[float]:
        """Work time inside each (start, end) interval, kernel runs excluded."""
        factors = self.factors() if normalized else [1.0] * len(self.segments)
        out = []
        for t0, t1 in intervals:
            total = 0.0
            for (s0, s1), f in zip(self.segments, factors):
                if s0 < t1 and s1 > t0:
                    total += (min(s1, t1) - max(s0, t0)) * f
            out.append(total)
        return out


def install_marks(clock: SpeedClock, mods: dict, importers) -> list:
    """Call clock.mark() before and after each MARK_POINTS call; returns the patches."""
    def marked(fn):
        def call(*args, **kwargs):
            clock.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.mark()
        return call

    wrappers = {}
    for short, names in MARK_POINTS.items():
        for name in names:
            fn = getattr(mods[short], name, None)
            if fn is not None:
                wrappers[fn] = marked(fn)
    return patch(wrappers, list(mods.values()) + list(importers))
