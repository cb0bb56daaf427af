"""Host-speed calibration: a fixed pure-Python kernel timed between samples.

On a shared host the same work can run at half speed from one second to
the next (this kernel took 0.95 ms to 2.0 ms in phases lasting seconds
on a 2-vCPU cloud VM, with no steal time reported).  The benchmark
therefore times the kernel around every stretch of measured work and
reports times scaled to a reference host on which the kernel takes
:data:`REFERENCE_MS`:

    reported = measured * REFERENCE_MS / kernel_ms

The kernel uses no code of the program under test, so a change to the
program moves the reported times and a change of host speed does not.
"""

from __future__ import annotations

import time

#: Kernel time (ms) on the reference host; reported times are scaled to it.
REFERENCE_MS = 1.0
_ITERATIONS = 4000
_REPEATS = 3
#: Longest stretch of samples between two kernel timings.
INTERVAL_MS = 80.0


def _kernel() -> float:
    table = {}
    values = []
    total = 0.0
    for index in range(_ITERATIONS):
        key = index % 61
        table[key] = table.get(key, 0) + index
        values.append(index * 0.5 - key)
        total += values[-1] if index & 1 else -key
    values.sort()
    return total + values[len(values) // 2] + len(table)


def kernel_ms() -> float:
    """Fastest of a few kernel runs, in milliseconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


class ScaledSamples:
    """Measured times, scaled by the kernel timed before and after each
    stretch of at most about :data:`INTERVAL_MS` of samples."""

    def __init__(self) -> None:
        self.raw_ms = []  # every sample as measured
        self.scaled_ms = []  # every sample at reference speed
        self._pending = []
        self._pending_ms = 0.0
        self.calibration_s = 0.0  # time spent timing the kernel
        self._before = self._kernel_ms()

    def _kernel_ms(self) -> float:
        started = time.perf_counter()
        result = kernel_ms()
        self.calibration_s += time.perf_counter() - started
        return result

    def add(self, measured_ms: float) -> None:
        self._pending.append(measured_ms)
        self._pending_ms += measured_ms
        if self._pending_ms >= INTERVAL_MS:
            self.calibrate()

    def calibrate(self) -> None:
        """Scale the pending samples by the host speed around them."""
        if not self._pending:
            return
        after = self._kernel_ms()
        scale = REFERENCE_MS / ((self._before + after) / 2.0)
        self._before = after
        self.raw_ms.extend(self._pending)
        self.scaled_ms.extend(value * scale for value in self._pending)
        self._pending = []
        self._pending_ms = 0.0
