"""The machine's speed, sampled while a run measures the solver.

This benchmark runs on a few cores of a shared host whose speed drifts
by 20-70% over seconds to minutes, as the neighbours' load changes; CPU
time drifts with wall time, so it is no remedy. The probe therefore
times a small fixed kernel, ``reference_kernel``, from a ``SIGALRM``
handler every ``INTERVAL_S`` of wall time, and reports a measured span
scaled towards reference speed:

    span seconds (probe time taken out)
        * (REFERENCE_S / median kernel time) ** WEIGHT

where the median is over the samples taken from ``margin`` seconds
before the span to ``margin`` seconds after it. ``REFERENCE_S`` is the
kernel's median time on the box the README's numbers come from, so a
scaled time reads close to a wall time there. ``WEIGHT`` = 1/2 makes
the scaled time the geometric mean of the wall time and the time at
reference speed: on some stretches the kernel's drift matched the
solver's, on others it was larger, and half the correction was the
steadier choice over both (the README has the figures). The kernel
lives in the benchmark, so a change to the solver can move its time
only through the caches the solver leaves behind.

The handler runs between bytecodes of the main thread, or when a long
numpy call returns; it touches nothing but its own arrays.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
WINDOW_S = 1.0
BURST = 5
REFERENCE_S = 0.0035
WEIGHT = 0.5

_rng = np.random.default_rng(0)
_SITES = [_rng.standard_normal((8, 4, 8)) for _ in range(6)]
_GATES = [_rng.standard_normal((4, 4)) for _ in range(6)]
_DENSE = _rng.standard_normal((128, 64))


def reference_kernel() -> float:
    """A fixed sample of the work a solve mixes: a chain of small
    contractions under the interpreter, each followed by a normalised
    distribution, a sort and a dict of the kept entries, then one dense
    SVD. About 3.5 ms on one core."""
    env, acc = np.eye(8), 0.0
    for i in range(40):
        site = _SITES[i % 6]
        t = np.einsum("ab,asc->bsc", env, site)
        t = np.einsum("bsc,st->btc", t, _GATES[i % 6])
        weights = np.exp(-np.abs(t).sum(axis=(0, 2)))
        probs = weights / weights.sum()
        kept = {int(k): float(probs[k]) for k in np.argsort(-probs)[:2]}
        acc += sum(kept.values())
        env = np.einsum("btc,btd->cd", t, site)
        env = env / (np.abs(env).max() + 1.0)
    return acc + float(np.linalg.svd(_DENSE, full_matrices=False)[1][0])


class SpeedProbe:
    """Context manager that samples ``reference_kernel`` while open.

    ``mark()`` reads a point in time, which ``span`` turns into seconds
    without the probe's own time; ``scaled(start, end)`` gives the same
    scaled towards reference speed. It needs the samples after the span,
    so read it once the probe has closed. A probe never opened takes no samples:
    its spans are plain wall time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.busy = 0.0
        self._sampling = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._sampling:  # a timer tick during a burst
            return
        self._sampling = True
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.busy += time.perf_counter() - start
        self._sampling = False

    def burst(self):
        """``BURST`` samples now, for a span too short for the timer."""
        for _ in range(BURST):
            self._sample()

    def __enter__(self):
        reference_kernel()  # warm numpy's and the kernel's first-call costs
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.busy

    def factor(self, start, end, margin=WINDOW_S) -> float:
        """``REFERENCE_S`` over the median kernel time around a span (over
        all samples if none is near), to the power ``WEIGHT``."""
        near = [s for t, s in self.samples
                if start[0] - margin <= t <= end[0] + margin]
        kernel_s = statistics.median(near or [s for _, s in self.samples])
        return (REFERENCE_S / kernel_s) ** WEIGHT

    def scaled(self, start, end) -> float:
        return span(start, end) * self.factor(start, end)


def span(start, end) -> float:
    """Seconds between two marks, the probe's own time taken out."""
    return (end[0] - start[0]) - (end[1] - start[1])
