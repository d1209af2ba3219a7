"""A clock that runs at a fixed reference speed of the machine.

The machines this benchmark runs on are shared, and their speed switches
between states up to 1.5x apart that last from seconds to many minutes,
for all code at once.  A wall clock would then report the machine's
state rather than the program's cost.  ``SpeedClock`` instead measures
the machine's current speed every ``TICK_S`` seconds, by timing a fixed
pure-Python kernel (building small tuples, sets and frozensets, tuple
hashing and dict lookups, the operations the library spends its time on)
from a ``SIGALRM`` handler, and advances at ``REFERENCE_KERNEL_S`` divided by the
median of the last ``WINDOW`` kernel times.  Its readings are seconds the
program would take on a machine where the kernel takes
``REFERENCE_KERNEL_S``.  The time spent in the handler is left out, so a
unit that a tick interrupts is not charged for it.

The kernel does not depend on the library, so every change of the
library's own speed shows in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from time import perf_counter

TICK_S = 0.1
WINDOW = 5
# the kernel's median time on the reference machine (see README.md)
REFERENCE_KERNEL_S = 0.002

_KEYS = [(i % 37, i % 11, i % 5) for i in range(256)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_REPEATS = 24


def kernel() -> int:
    """Fixed work: allocate and hash small tuples, fill a set, freeze it."""
    acc = 0
    for _ in range(_REPEATS):
        seen = set()
        for k in _KEYS:
            seen.add((k[0], k[1] + 1))
            acc += _TABLE.get(k, 0)
        acc += len(frozenset(seen))
    return acc


def time_kernel() -> float:
    """The kernel's duration, with the collector off so that it never
    collects the library's garbage inside the timing."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    kernel()
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedClock:
    """Seconds at the reference speed; ``now()`` is valid between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []  # every kernel time, for the report
        self._window: deque[float] = deque(maxlen=WINDOW)
        self._virtual = 0.0
        self._since = 0.0
        self._factor = 1.0
        self._generation = 0
        self._in_tick = False
        self._previous_handler = None

    def start(self) -> None:
        for _ in range(WINDOW):
            self._window.append(time_kernel())
        self.samples.extend(self._window)
        self._factor = REFERENCE_KERNEL_S / statistics.median(self._window)
        self._since = perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def now(self) -> float:
        # a tick between the reads changes the generation; read again then
        while True:
            generation = self._generation
            value = self._virtual + (perf_counter() - self._since) * self._factor
            if generation == self._generation:
                return value

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # a tick that arrives while the last one still runs
            return
        self._in_tick = True
        self._virtual += (perf_counter() - self._since) * self._factor
        sample = time_kernel()
        self.samples.append(sample)
        self._window.append(sample)
        self._factor = REFERENCE_KERNEL_S / statistics.median(self._window)
        self._since = perf_counter()
        self._generation += 1
        self._in_tick = False

    def speed_report(self) -> dict:
        """Kernel times seen during the run, against the reference."""
        ordered = sorted(self.samples)
        return {
            "ticks": len(ordered),
            "kernel_median_s": statistics.median(ordered),
            "kernel_min_s": ordered[0],
            "kernel_max_s": ordered[-1],
            "reference_kernel_s": REFERENCE_KERNEL_S,
        }
