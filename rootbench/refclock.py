"""Times in reference seconds, corrected for the drift of the host's speed.

On a shared host the same computation can take tens of percent longer for
tens of seconds at a time, and only on some of the cores, which hides any
real change.  A fixed reference computation on the same core slows down
with it.  So while the children run, pinned to one core, a real-time
thread of the benchmark's own process on that core interrupts them every
PERIOD_S seconds to run the reference, and keeps (start, seconds) samples
on the system-wide monotonic clock.  A stretch of a child's work in
reference seconds is its raw duration, less the samples that interrupted
it, times NOMINAL_S over the mean reference time sampled around it: the
time it would take if one reference computation took NOMINAL_S.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

NOMINAL_S = 0.01
PERIOD_S = 0.2
# Samples that start this far outside a stretch still count for its mean,
# so that a stretch shorter than the period (a set-up of 0.15 s) has some.
PAD_S = 0.5

_KEYS = [((i * 7919) % 65_536, i & 7) for i in range(20_000)]
_DATA = np.random.default_rng(0).integers(0, 1 << 40, size=200_000)


class Reference:
    """A fixed computation that allocates nothing once built: 60,000
    updates of a dict keyed by tuples, then copying and sorting 200,000
    integers, the kinds of work the regroot layers do."""

    def __init__(self):
        self._table = dict.fromkeys(_KEYS, 0)
        self._buf = np.empty_like(_DATA)

    def seconds(self) -> float:
        """Runs the computation once and returns how long it took."""
        t0 = time.monotonic()
        for _ in range(3):
            for k in _KEYS:
                self._table[k] ^= 1
        self._buf[:] = _DATA
        self._buf.sort()
        return time.monotonic() - t0


def pin_to_one_cpu() -> int:
    """Pins the calling thread, and so every child it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Runs the reference every PERIOD_S seconds on `cpu` until stopped.

    The thread asks for real-time priority, so that a sample preempts the
    child at once instead of sharing the core with it.  realtime tells
    whether the system granted it.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.realtime = False
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        tid = threading.get_native_id()
        os.sched_setaffinity(tid, {self.cpu})
        try:
            os.sched_setscheduler(tid, os.SCHED_FIFO, os.sched_param(1))
            self.realtime = True
        except PermissionError:
            pass
        ref = Reference()
        ref.seconds()  # warm-up, not kept
        while not self._stop.is_set():
            t = time.monotonic()
            self.samples.append((t, ref.seconds()))
            self._stop.wait(PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def ref_seconds(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """The stretch [start, end] of the monotonic clock in reference seconds.

    samples are (start, seconds) pairs sorted by start, as Sampler keeps
    them."""
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, start - PAD_S), bisect.bisect_right(starts, end + PAD_S)
    if lo == hi:
        raise ValueError(f"no reference sample near [{start}, {end}]")
    near = samples[lo:hi]
    busy = sum(max(0.0, min(s + r, end) - max(s, start)) for s, r in near)
    return (end - start - busy) * NOMINAL_S / statistics.fmean(r for _, r in near)
