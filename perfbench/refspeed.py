"""The machine's speed of the moment, sampled while the program runs.

The host this benchmark was written on gives it two vCPUs of a shared
machine, and their speed drifts by a third over tens of seconds: process
time rises with wall time, so the time is lost to slower execution, not to
waiting for a CPU.  A pass timed in a slow minute and one timed in a fast
minute differ by more than any bound a regression check could use.

So a fixed reference kernel, which shares no code with the program, runs
from a timer signal at a fixed interval while the program works.  Its mean
time against its nominal time is the speed factor of that stretch, and
times are divided by it: what the stretch would have taken at the speed at
which the kernel takes its nominal time.  The kernel's own time is taken
out of every duration measured with ``clock()``.

    probe = SpeedProbe(numeric, NUMERIC_S, 0.01)
    probe.start()
    ...  # durations measured with refspeed.clock()
    factor = probe.stop()

The kernel should spend its time the way the measured code does:
``interpreted`` (bytecode only) for imports and table set-up, which run
before numpy is loaded, and ``numeric`` (loops around small numpy calls)
for the workloads.  Each tracked those stretches' times with a correlation
of about 0.9 on that host, where the other kernels tried did worse.
"""

from __future__ import annotations

import gc
import signal
import time

# Each kernel's time on a timer tick at a fast moment of that host (Intel
# Xeon, Python 3.11, numpy 2.4); they set only the scale of scaled times.
INTERPRETED_S = 300e-6
NUMERIC_S = 300e-6

_spent = 0.0  # seconds spent in reference kernels, taken out of clock()


def clock() -> float:
    """``time.perf_counter()`` less the time spent in reference kernels."""
    return time.perf_counter() - _spent


def interpreted() -> None:
    total = 0
    for i in range(3000):
        total += i * i % 7


def numeric() -> None:
    import numpy as np

    m = np.full((4, 4), 0.25) + np.eye(4)
    a = np.ones(16)
    total = 0
    for i in range(12):
        a = np.tensordot(m, a.reshape(4, 4), axes=([1], [0])).ravel()
        a = a / np.linalg.norm(a)
        for j in range(20):
            total += i * j % 7


class SpeedProbe:
    """Runs ``kernel`` every ``tick_s`` between ``start`` and ``stop``."""

    def __init__(self, kernel, nominal_s: float, tick_s: float) -> None:
        self.kernel, self.nominal_s, self.tick_s = kernel, nominal_s, tick_s
        self.total = 0.0  # seconds in the kernel since start
        self.count = 0

    def _tick(self, _signum=None, _frame=None) -> None:
        global _spent
        # A full collection of the program's heap, if the kernel's few
        # allocations set one off, would count as kernel time, and with
        # millions of live objects (exact) it takes far longer than the
        # kernel.  Left disabled, it runs at the program's next allocation,
        # as it would have without the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.total += took
        self.count += 1
        _spent += took

    def start(self) -> None:
        self.total, self.count = 0.0, 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> float:
        """Stop sampling; return the speed factor since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.count:  # shorter than one tick
            self._tick()
        return self.total / self.count / self.nominal_s
