"""Times at a reference speed of the machine.

The benchmark runs on a few cores of a shared host.  There the same
operation runs up to a quarter slower for stretches of tens of seconds
while other tenants load the host, and such a stretch can cover a whole
run, so that no statistic over one run's samples removes it.  A short
fixed kernel of small numpy operations, like the program's own, slows
down with it.  So the kernel is timed between samples, and each sample is
scaled by the mean of the kernel times just before and just after it:

    scaled = wall * KERNEL_REF_S / mean(kernel_before, kernel_after)

that is, the wall time the sample would have taken at the speed at which
the kernel takes ``KERNEL_REF_S``.  The kernel does not call the program,
so a change to the program moves scaled times as it moves wall times.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's median wall time on the machine where the benchmark was
# written (2 cores of a 2.1 GHz Xeon host, Python 3.11.7, numpy 2.4.6,
# one OpenBLAS thread); scaled times read as wall times there.
KERNEL_REF_S = 0.0234
# A sample is scaled by a kernel run at most this much sample time ago.
RECALIBRATE_S = 0.25

KERNEL_STEPS = 2000
_A = np.random.default_rng(0).normal(size=(4, 4))


def kernel() -> float:
    """Wall time of a fixed run of small matrix products, maxima and
    spectral norms."""
    start = time.perf_counter()
    x = np.ones(4)
    for i in range(KERNEL_STEPS):
        x = _A @ x
        x = x / (1.0 + np.abs(x).max())
        if i % 4 == 0:
            np.linalg.norm(_A[:2], 2)
    return time.perf_counter() - start


class Sample:
    """One timed call: its wall time and the kernel times around it."""

    __slots__ = ("wall", "before", "after")

    def __init__(self, wall: float, before: float) -> None:
        self.wall = wall
        self.before = before
        self.after = None

    @property
    def scaled(self) -> float:
        """The wall time at the reference speed; known once the kernel
        has run after the call."""
        return self.wall * KERNEL_REF_S / ((self.before + self.after) / 2)


class Clock:
    """Times calls, and runs the kernel between them."""

    def __init__(self) -> None:
        self._kernel = math.nan
        self._since = math.inf
        self._open: list[Sample] = []

    def _calibrate(self) -> None:
        self._kernel = kernel()
        self._since = 0.0
        for sample in self._open:
            sample.after = self._kernel
        self._open = []

    def time(self, fn, *args):
        """``(fn(*args), Sample)``.  The kernel runs first if
        ``RECALIBRATE_S`` of timed calls have gone by since it last ran."""
        if self._since >= RECALIBRATE_S:
            self._calibrate()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._since += wall
        sample = Sample(wall, self._kernel)
        self._open.append(sample)
        return result, sample

    def close(self) -> None:
        """Run the kernel after the last calls, so that every sample can
        be scaled."""
        if self._open:
            self._calibrate()
