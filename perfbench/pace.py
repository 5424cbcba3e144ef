"""Host pace: a fixed probe, timed every INTERVAL_S while operations run,
that turns wall seconds into seconds at a reference pace.

On a shared 2-core x86_64 host the machine switched between a fast and a
slow mode, by up to 1.6x, sometimes within a second and sometimes only after
tens of seconds, and the low percentiles moved with it, so neither medians
nor minima of wall times agreed between runs.  A fixed probe slowed by about
the same factor as the operations around it.  So while a Clock times
operations, a SIGALRM handler runs the probe every INTERVAL_S of wall time,
and an operation's time, less the probe runs inside it, is scaled by
REFERENCE_S over the mean probe time during it.  Samples of a short
operation are topped up with the nearest ones around it.  While a child
process runs, a probe in the parent would share the child's CPU and time
some of the child's slices too, so the signal is held for the child's run
and BURST probes right after it sample the pace instead.

The probe does not use the package, so a change to the package moves the
scaled time as it moves the wall time.  It allocates no object the garbage
collector tracks, so it never sets off a collection of the package's heap.
The signal is not delivered inside one long C call, which then has no
sample of its own; the samples around it stand in.  The run record keeps
the wall times and every sample.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time

import numpy as np

# Probe seconds that the scaled times are expressed at: about the probe's
# time in the fast mode of the host above.
REFERENCE_S = 0.00025

INTERVAL_S = 0.02

# A call's pace is the mean of at least this many samples: its own, topped
# up with the nearest ones around it.
MIN_SAMPLES = 8

# Probes run back to back when a Clock starts and after each child call.
BURST = 8

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))
_A, _B = 3**400, 7**300


def probe() -> float:
    """Seconds of one run of a fixed mix like the package's own work:
    complex arithmetic in the interpreter, big-integer products and
    vectorised numpy."""
    t = time.perf_counter()
    z, s = 0.3 + 0.4j, 0j
    for i in range(150):
        z = z * z * 0.5 + complex(i % 7, 1) * 1e-3
        s += z
    a = _A
    for i in range(25):
        a = (a * _B + i) % (_B * _B + 1)
    x = _MATRIX
    for _ in range(4):
        x = np.exp(x * 1e-3) + _MATRIX
    return time.perf_counter() - t


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to one CPU, so that
    the samples come from the CPU the timed work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Clock:
    """Times calls while the probe samples the pace, and scales the times
    once the run is over.  Use as a context manager."""

    def __init__(self):
        self.samples = []  # (start, end) of each probe run
        self.calls = []  # (start, end, key)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter()))

    def _burst(self):
        for _ in range(BURST):
            self._sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, key, fn, child=False):
        """(fn(), wall seconds).  A garbage collection runs first, untimed,
        so that no call pays for an earlier one's garbage.  `child` says that
        fn waits for a child process."""
        gc.collect()
        if child:
            signal.setitimer(signal.ITIMER_REAL, 0)
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.calls.append((start, end, key))
        if child:
            self._burst()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return result, end - start

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the call [start, end] at the reference pace."""
        starts = [a for a, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        probe_s = sum(b - a for a, b in self.samples[lo:hi])
        while hi - lo < min(MIN_SAMPLES, len(starts)):
            before = start - starts[lo - 1] if lo > 0 else float("inf")
            after = starts[hi] - end if hi < len(starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        pace = statistics.fmean(b - a for a, b in self.samples[lo:hi])
        return (end - start - probe_s) * REFERENCE_S / pace

    def wall(self, key) -> list[float]:
        return [end - start for start, end, k in self.calls if k == key]

    def paced(self, key) -> list[float]:
        """Seconds of each call of `key` at the reference pace."""
        return [self.scaled(start, end) for start, end, k in self.calls if k == key]

    def log(self) -> dict:
        """Samples and calls, relative to the first call, for the record."""
        t0 = self.calls[0][0] if self.calls else 0.0
        return {"samples": [(round(a - t0, 5), b - a) for a, b in self.samples],
                "calls": [(round(a - t0, 5), round(b - t0, 5), str(k))
                          for a, b, k in self.calls]}
