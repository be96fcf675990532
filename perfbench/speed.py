"""Machine-speed sampling for timings taken on a shared host.

On the shared 2-core VM this benchmark was built on, the speed a process
gets switches every few seconds between phases about 40 % apart, and the
mix drifts over minutes, so a wall time says as much about the host as
about the program. While a run measures, a SIGALRM timer runs a fixed
calibration kernel (NumPy operations on a 100k-element array, no sltrans
code) every INTERVAL_S. The samples are evenly spaced in time, so their mean
is the run's average slowness, and timings are rescaled to a reference
speed:

    reference seconds = (wall seconds - time spent in the sampler)
                        * KERNEL_REF_S / (mean kernel time)

The kernel runs no program code, but it runs in the program's process.
It therefore writes into buffers allocated once, at import: a kernel that
allocated its 800 kB temporaries ran 1.8 times slower beside a program
that chunked its large arrays, because glibc then served them with fresh
mmap pages instead of recycled heap. A program change could still move
the kernel through the caches, so run.py reports the speed factors and
wall times beside the metrics, and compare.py declines to judge a time
metric when the two sides' speed factors differ by more than their
run-to-run spread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# The kernel's time in a fast phase of that VM (NumPy 2.4); it only sets
# the scale of the reference seconds.
KERNEL_REF_S = 0.001

_X = np.linspace(0.0, 1.0, 100_000)
_A = np.empty_like(_X)
_B = np.empty_like(_X)


def kernel() -> float:
    """Seconds taken by one pass of the fixed calibration kernel.

    Computes cos(x) / 2 + sqrt(x + 1) without allocating.
    """
    t0 = time.perf_counter()
    np.cos(_X, out=_A)
    np.multiply(_A, 0.5, out=_A)
    np.add(_X, 1.0, out=_B)
    np.sqrt(_B, out=_B)
    np.add(_A, _B, out=_A)
    return time.perf_counter() - t0


kernel()  # touch the buffers' pages before any sample is taken


class Sampler:
    """Runs the kernel on a timer while active; use as a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        return factor(self.samples)


def factor(kernel_times) -> float:
    """Multiply a wall time by this to get reference seconds."""
    return KERNEL_REF_S / statistics.fmean(kernel_times)
