"""A fixed reference computation that tells how fast the host runs right now.

The reference host is a shared VM whose CPU speed drifts by up to 1.8x over
seconds to minutes, with no steal time to show for it.  run.py times this
kernel between operations and divides each operation's latency by the
kernel's time around it: the mean of the last kernel run before the
operation and the first one after it.  That gives the operation's cost in
units of the kernel ("ref").  The kernel imports nothing from pixelret, so
no change to the library can move it; its mix follows the workloads':
numpy FFTs (as in ILT) and a Python loop of small matrix-vector products
(as in per-pixel inference and training).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

FFT_SIDE = 512
FFT_REPEATS = 4
LOOP_STEPS = 3000


class HostReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.grid = rng.random((FFT_SIDE, FFT_SIDE))
        self.vectors = rng.random((400, 64)).astype(np.float32)
        self.matrix = rng.random((64, 64)).astype(np.float32)
        self.starts: list[float] = []  # perf_counter at the start of each run
        self.ends: list[float] = []
        self.times: list[float] = []  # seconds per run

    def measure(self) -> float:
        """Run the kernel once and keep when it ran and how long it took."""
        t0 = time.perf_counter()
        for _ in range(FFT_REPEATS):
            np.fft.irfft2(np.fft.rfft2(self.grid) ** 2, self.grid.shape)
        acc = 0.0
        n = len(self.vectors)
        for i in range(LOOP_STEPS):
            acc += float((self.vectors[i % n] @ self.matrix).max())
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)
        return t1 - t0

    def around(self, start: float, end: float) -> float:
        """Mean time of the last run that ended by `start` and the first
        that began at or after `end` (perf_counter values); one of them
        alone when the other does not exist.
        """
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.times[k] for k in (before, after) if 0 <= k < len(self.times)]
        if not near:
            raise ValueError("no reference run before or after the interval")
        return sum(near) / len(near)
