"""Express timed work in units of a fixed reference kernel.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds, as other tenants come and go.  ``SpeedProbe`` times a fixed
pure-Python kernel (no dualhash code) from a SIGALRM timer every INTERVAL
seconds while a pass runs, plus once just before and once just after, and
converts the pass's seconds into kernel runs: each stretch of work is divided
by the kernel time measured next to it, so a drift in machine speed cancels.
The handler's own time is subtracted from the pass.

Set-up is too short for the timer and is mostly compiling dualhash's source
(run.py writes no bytecode), which follows the machine's drift differently
from the kernel.  ``compile_seconds`` times a fixed compile instead, and
SETUP_REFERENCE_S turns set-up time in its units back into "reference
seconds": seconds on a core where that compile takes 3 ms.
"""

from __future__ import annotations

import fractions
import inspect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.1
KERNEL_ROUNDS = 10000
MASK64 = (1 << 64) - 1
REFERENCE_SOURCE = inspect.getsource(fractions)
SETUP_REFERENCE_S = 0.003


def kernel() -> int:
    """Fixed integer, bit-count and dict work, about 4 ms on one core."""
    x, acc, table = 0x9E3779B97F4A7C15, 0, {}
    for _ in range(KERNEL_ROUNDS):
        x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
        acc += (x & (x >> 7)).bit_count()
        table[x & 1023] = acc
    return acc


def compile_seconds() -> float:
    """Wall time of compiling REFERENCE_SOURCE, the standard library's
    fractions module (about 3 ms on one core)."""
    start = perf_counter()
    compile(REFERENCE_SOURCE, "reference", "exec")
    return perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.overhead = 0.0  # seconds spent in the timer handler
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        try:
            self._sample()
        finally:
            self.overhead += perf_counter() - start
            self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def units(self, seconds: float) -> float:
        """Seconds of work done inside the probe, in kernel runs.

        Samples are evenly spaced in time, so the mean kernel speed over them
        weights every stretch of the pass equally.
        """
        return seconds * statistics.fmean(1 / s for s in self.samples)
