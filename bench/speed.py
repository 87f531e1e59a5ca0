"""Timings rescaled to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts: while it was tuned on
2 vCPUs, the same task took anywhere from 1x to 1.8x its best time, for
stretches of seconds to minutes, with no steal time visible to the guest.
Medians over repetitions cannot remove a slowdown that lasts a whole run.

A fixed pure-Python kernel (dict updates on small ints) slows down with the
host in the same way, so it measures the host's speed at that moment.  It
is timed before and after every timed span and, inside a long span, every
``SAMPLE_EVERY_S`` from a timer signal; the span's raw time (minus the
kernel's own time) is multiplied by ``REFERENCE_S`` over the mean kernel
time.  The reported numbers are therefore seconds on a host where the
kernel takes ``REFERENCE_S``, close to the same host when idle.  Raw times
are kept in the metadata.  On an 80 s trace, this cut the interquartile
spread of a task's time from 0.37 to 0.08 of its median.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

REFERENCE_S = 0.0045
KERNEL_ROUNDS = 40_000
SAMPLE_EVERY_S = 0.25


def _kernel():
    d = {}
    for i in range(KERNEL_ROUNDS):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    return d


def kernel_s():
    """Fastest of three runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedClock:
    """Scale factors for consecutive spans, sharing the kernel runs between them.

    ``sample=False`` turns off the timer inside spans; a traced run uses it,
    because the kernel would otherwise add to the self time of whatever
    library call it interrupted.
    """

    def __init__(self, sample=True):
        self.last = kernel_s()
        self.sample = sample

    @contextlib.contextmanager
    def span(self):
        """Time the body; on exit the yielded dict holds ``raw_s`` and ``factor``."""
        out = {}
        samples = [self.last]
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            _kernel()
            took = time.perf_counter() - start
            samples.append(took)
            spent += took

        if self.sample:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            yield out
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            out["raw_s"] = time.perf_counter() - start - spent
            self.last = kernel_s()
            samples.append(self.last)
            out["factor"] = REFERENCE_S / statistics.fmean(samples)
