"""Host-speed probe: timings scaled to a reference CPU speed.

A shared host runs the benchmark at a speed that drifts and flips
between regimes well apart (see ``WORKLOADS.md``), for seconds or
minutes at a time.  A median over one run cannot absorb a regime that
lasts the whole run, so every timed interval is corrected for the two
ways a host slows a guest down:

* **Slower CPUs** (a busy sibling thread, cache pressure, clock speed).
  While a run measures, a timer interrupts the program every
  :data:`PERIOD_S` and times a fixed slice of interpreter work, the
  *kernel*, on the same thread.  Like the simulator, the kernel
  allocates small objects, reads their attributes and updates a dict.
  It uses no code of the program, so a change to the program cannot
  change the kernel.  The median kernel time ``m`` is the speed.
* **Stolen time**: the hypervisor runs another guest on this machine's
  CPU, and the guest's clock keeps going.  The kernel's ``steal``
  counter in ``/proc/stat`` is read with every sample; ``f`` is the
  share of the window it grew by.

An interval is scaled by ``(1 - f) * REFERENCE_S / m``, both measured
over a window that is the interval itself, widened to
:data:`MIN_WINDOW_S` around its middle when shorter.  A scaled time
reads as the time the interval would have taken with no time stolen,
at the speed where one kernel takes exactly :data:`REFERENCE_S`.  The
kernel's own cost, a few percent of the interval, stays in it.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List

#: Seconds between samples.
PERIOD_S = 0.025
#: Objects one kernel allocates: about 0.5 ms of interpreter work.
KERNEL_OBJECTS = 2000
#: Kernel seconds at the reference speed, which scaled times assume.
REFERENCE_S = 0.0005
#: Shortest window the speed of an interval is measured over.
MIN_WINDOW_S = 1.0
#: Fewest samples one scale factor rests on.
MIN_SAMPLES = 5
#: Most of a window counted as stolen.  The counter sums every CPU, so
#: with two busy CPUs it can exceed the window; a scaled time stays > 0.
MAX_STOLEN_SHARE = 0.5

_PROC_STAT = "/proc/stat"
_STEAL_FIELD = 8  # cpu user nice system idle iowait irq softirq steal


def stolen_s() -> float:
    """CPU seconds stolen from this machine so far, over all its CPUs.

    0 where the counter does not exist, so no correction is made there.
    """
    try:
        with open(_PROC_STAT, "rb") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if len(fields) <= _STEAL_FIELD:
        return 0.0
    return int(fields[_STEAL_FIELD]) / os.sysconf("SC_CLK_TCK")


class _Cell:
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: int) -> None:
        self.tag = tag
        self.value = value


def kernel() -> int:
    """The fixed slice of work one sample times.

    The collector is held off while it runs, so that its allocations
    neither trigger a collection of the program's objects nor pay for one.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        cells = [_Cell(index & 511, index) for index in range(KERNEL_OBJECTS)]
        sums: dict = {}
        for cell in cells:
            sums[cell.tag] = sums.get(cell.tag, 0) + cell.value
        return len(sums)
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Samples the kernel on a timer and scales intervals by the result.

    Use as ``with probe.sampling(): ...`` from the main thread; the
    timer is a ``SIGALRM`` interval timer, and the previous handler is
    restored on exit.  :meth:`burst` takes samples directly, around an
    interval spent in another process.
    """

    def __init__(self) -> None:
        self._busy = False
        self.stamps: List[float] = []
        self.durations: List[float] = []
        self.stolen: List[float] = []

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        start = perf_counter()
        kernel()
        self.durations.append(perf_counter() - start)
        self.stolen.append(stolen_s())
        self.stamps.append(start)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def burst(self, count: int) -> None:
        """Take ``count`` samples now, one after another."""
        for _ in range(count):
            self._sample()

    @contextmanager
    def sampling(self) -> Iterator["SpeedProbe"]:
        """Run the interval timer for the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------

    def factor(self, start: float, end: float) -> float:
        """``(1 - f) * REFERENCE_S / m`` over the window of [start, end]."""
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        lo = bisect_left(self.stamps, middle - half)
        hi = bisect_right(self.stamps, middle + half)
        if hi - lo < MIN_SAMPLES:
            raise ValueError(
                f"speed probe has {hi - lo} samples in [{middle - half:.3f}, "
                f"{middle + half:.3f}]; scaling needs at least {MIN_SAMPLES}"
            )
        span = self.stamps[hi - 1] - self.stamps[lo]
        stolen = self.stolen[hi - 1] - self.stolen[lo]
        available = 1.0 - min(stolen / span, MAX_STOLEN_SHARE) if span > 0 else 1.0
        return available * REFERENCE_S / statistics.median(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The seconds in [start, end], corrected to the reference host."""
        return (end - start) * self.factor(start, end)
