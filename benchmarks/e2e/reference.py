"""The host-speed reference: a fixed kernel timed beside every host timing.

The sandbox is a few virtual CPUs of a shared host.  Its speed moves by
a factor of up to 1.6 for seconds to minutes at a time (a neighbour on
the sibling hyper-thread, shared caches, the hypervisor's own work) and
the guest sees none of it: process CPU time rises with wall time, and a
whole run can sit inside one slow phase, so no quantile of the
run's own batches removes it.  Identical runs of one commit then differ
by more than any bound this benchmark could gate on.

So every host timing is taken next to runs of one fixed kernel that
does what the engine does all day -- copy 2 KB pages out of a
few-megabyte working set, patch 41 bytes, diff the two images with
numpy, CRC the result, update a dict -- and uses nothing of the engine.
The kernel's own time, over :data:`NOMINAL_NS`, is how slow the host is
right now; dividing a host timing by that *slowdown* gives the time the
same work takes on a host that runs the kernel in exactly
``NOMINAL_NS``.  ``NOMINAL_NS`` is the kernel's time on the quiet
sandbox, so a corrected figure reads as "host microseconds on the quiet
2-core sandbox"; the raw figures and the slowdowns travel in each run's
``detail``.  A batch or a restart is read around (:class:`Pace`), a
set-up is read inside (:class:`Sampled`).

The kernel is part of the benchmark's definition: changing it, or
``NOMINAL_NS``, redefines every host metric.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
import zlib
from typing import List, Optional

import numpy as np

#: The kernel's run time on the quiet sandbox (Xeon 2.1 GHz, Python 3.11).
NOMINAL_NS = 4_000_000

_PAGES = 2048
_PAGE_SIZE = 2048
_CHANGE = 41
_STEPS = 600


class Reference:
    """The kernel and its working set (4 MB of pages, one small dict)."""

    def __init__(self) -> None:
        fill = random.Random(0x5EED)
        self._pages = [fill.randbytes(_PAGE_SIZE) for _ in range(_PAGES)]
        self._table = {pid: 0 for pid in range(_PAGES)}
        self._state = 1
        for _ in range(5):  # first-touch and allocator warm-up
            self.run()

    def run(self) -> int:
        """One fixed quantum of work; returns its host nanoseconds.

        It creates no object the cyclic collector tracks, so running it
        (from a timer, inside a set-up) cannot move the moment the
        engine's garbage is collected, and with it the peak memory."""
        pages, table = self._pages, self._table
        state, acc = self._state, 0
        frombuffer, flatnonzero, crc32 = np.frombuffer, np.flatnonzero, zlib.crc32
        start = time.perf_counter_ns()
        for _ in range(_STEPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            pid = state % _PAGES
            offset = (state >> 8) % (_PAGE_SIZE - _CHANGE - 1)
            old = pages[pid]
            image = bytearray(old)
            image[offset : offset + _CHANGE] = old[offset + 1 : offset + 1 + _CHANGE]
            new = bytes(image)
            changed = flatnonzero(
                frombuffer(old, dtype=np.uint8) != frombuffer(new, dtype=np.uint8)
            )
            acc ^= crc32(new) + len(changed)
            table[pid] = acc & 0xFFFF
            pages[pid] = new
        elapsed = time.perf_counter_ns() - start
        self._state = state
        return elapsed

    def slowdown(self) -> float:
        """How slow the host is right now: one kernel run over the
        nominal run time (1.0 = the quiet sandbox)."""
        return self.run() / NOMINAL_NS


class Pace:
    """Slowdown readings taken around timed stretches.

    ``since_last()`` after a stretch returns the slowdown that applies
    to it: the mean of the reading before it (the previous call's) and
    a new one after it.  Without a reference (the traced pass, whose
    numbers are raw) every slowdown is 1.
    """

    def __init__(self, reference: Optional[Reference]) -> None:
        self._reference = reference
        self._last = self._read()

    def _read(self) -> float:
        return 1.0 if self._reference is None else self._reference.slowdown()

    def since_last(self) -> float:
        now = self._read()
        slow = (self._last + now) / 2.0
        self._last = now
        return slow


class Sampled:
    """Times a stretch too long for a reading at each end (a set-up):
    a timer signal runs the kernel every :data:`PERIOD_S` inside it.

    Python runs the handler on the main thread between two bytecodes,
    so the kernel is interleaved with the stretch, not run beside it.
    The stretch's time is its wall time less the kernel's own, over the
    median slowdown read; a stretch shorter than one period gets one
    reading taken right after it.
    """

    PERIOD_S = 0.1

    def __init__(self, reference: Reference) -> None:
        self._reference = reference
        self.slowdowns: List[float] = []
        self._kernel_ns = 0
        self.raw_seconds = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        elapsed = self._reference.run()
        self._kernel_ns += elapsed
        self.slowdowns.append(elapsed / NOMINAL_NS)

    def __enter__(self) -> "Sampled":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall_ns = time.perf_counter_ns() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_seconds = (wall_ns - self._kernel_ns) / 1e9
        if not self.slowdowns:
            self._tick()

    @property
    def seconds(self) -> float:
        return self.raw_seconds / statistics.median(self.slowdowns)
