"""Machine-speed reference timed between solves.

On a shared 2-core VM the speed of the same solve drifts by up to half
between stretches of a second to a minute (measured: 0.95 to 1.55 ms per
Newton step on one sdp_cold instance, with under 1% steal time), so raw
wall times of ten runs in a row had a quartile spread of 11 to 40%.
The benchmark therefore times a fixed kernel of small ``eigh`` calls,
products and Python arithmetic -- the mix a solve spends its time on --
between solves, and scales each measured interval by the kernel's speed
around it: ``t * REF_CHUNK_S / mean(chunks near t)``.  A kernel run that
falls inside an interval (the set-up ticks while it prepares the starts) is
taken out of the interval first.  The kernel is benchmark code, so no
change to the program moves it; raw wall times are kept in the result file
next to the scaled ones.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# nominal kernel time; only sets the unit, so scaled times read in seconds
REF_CHUNK_S = 0.02
# solve time between kernel runs, and how far around an interval to look
INTERVAL_S = 0.25
WINDOW_S = 1.0
_REPS = 360
_SIDE = 12


class SpeedClock:
    """Runs the kernel at most every INTERVAL_S and records its times."""

    def __init__(self):
        a = np.random.default_rng(20201).standard_normal((_SIDE, _SIDE))
        self._mat = a + a.T
        self._iu = np.triu_indices(_SIDE)
        self.starts = array("d")
        self.marks = array("d")
        self.chunks = array("d")
        self._last = -np.inf

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(_REPS):
            lam, vecs = np.linalg.eigh(self._mat)
            b = (vecs * np.exp(1e-3 * lam)) @ vecs.T
            v = b[self._iu] * 1.5
            acc += float(v @ v) + sum(float(x) for x in lam[:4])
        return acc

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < INTERVAL_S:
            return
        tic = time.perf_counter()
        self._kernel()
        toc = time.perf_counter()
        self.starts.append(tic)
        self.marks.append(0.5 * (tic + toc))
        self.chunks.append(toc - tic)
        self._last = toc

    def factor(self, start: float, end: float) -> float:
        """REF_CHUNK_S over the mean kernel time within WINDOW_S of [start, end].

        The mean, not the median: the kernel times are bimodal when the
        machine flips between a fast and a slow state, and an interval runs
        at the average speed of the states it spans.
        """
        marks = np.frombuffer(self.marks, dtype=float)
        chunks = np.frombuffer(self.chunks, dtype=float)
        near = (marks >= start - WINDOW_S) & (marks <= end + WINDOW_S)
        if not near.any():
            mid = 0.5 * (start + end)
            near = np.abs(marks - mid) == np.abs(marks - mid).min()
        return REF_CHUNK_S / float(np.mean(chunks[near]))

    def net(self, start: float, end: float) -> float:
        """Length of [start, end] less the kernel runs inside it, in seconds."""
        starts = np.frombuffer(self.starts, dtype=float)
        chunks = np.frombuffer(self.chunks, dtype=float)
        inside = (starts >= start) & (starts + chunks <= end)
        return (end - start) - float(chunks[inside].sum())

    def scaled(self, start: float, end: float) -> float:
        """Length of [start, end], less the kernel runs inside it, in reference seconds."""
        return self.net(start, end) * self.factor(start, end)
