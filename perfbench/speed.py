"""Machine speed along a run, so that times taken at different moments compare.

On a shared machine the same pass runs up to twice as slow while neighbours
are busy, and such spells last from seconds to minutes.  `SpeedProbe` times a
fixed reference kernel (sparse matrix-vector products and vector norms on a
40x40 grid Laplacian, built here, not taken from meshspectra) every
`INTERVAL` seconds of a timed pass, from a SIGALRM handler in the main thread.
A call's rescaled time is its own time, with the kernel runs taken out, times
`REFERENCE_S` over the kernel's time around it: the seconds the call would
have taken on a machine on which the kernel takes `REFERENCE_S`.  The kernel
spends its time the way the program does (scipy sparse products, small numpy
vector operations and interpreter overhead), so it slows with the program.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

INTERVAL = 0.1  # seconds between kernel runs while sampling
REFERENCE_S = 1e-3  # the kernel time rescaled times are expressed at
GRID = 40
PRODUCTS = 40


class SpeedProbe:
    def __init__(self):
        t = sp.diags([-np.ones(GRID - 1), 2.0 * np.ones(GRID), -np.ones(GRID - 1)], [-1, 0, 1])
        eye = sp.identity(GRID)
        self._matrix = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
        self._start = np.ones(self._matrix.shape[0])
        self.samples = []  # (start, seconds) of each kernel run while sampling

    def kernel(self) -> float:
        """Seconds of one run of the reference kernel."""
        start = time.perf_counter()
        v = self._start
        for _ in range(PRODUCTS):
            w = self._matrix @ v
            v = w / np.linalg.norm(w)
        return time.perf_counter() - start

    def reference(self, repeats: int = 9) -> float:
        """Median kernel time over a few back-to-back runs."""
        return statistics.median(self.kernel() for _ in range(repeats))

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel now and every INTERVAL seconds until the block ends."""
        self._on_alarm(None, None)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(own seconds, rescaled seconds) of the interval [start, end].

        Own seconds leave out the kernel runs inside the interval.  The
        rescaling uses the kernel runs inside it, or the nearest one if the
        interval holds none; sampling() has run at least one.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        own = (end - start) - sum(seconds for _, seconds in inside)
        if not inside:
            middle = 0.5 * (start + end)
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))]
        speed = statistics.fmean(REFERENCE_S / seconds for _, seconds in inside)
        return own, own * speed
