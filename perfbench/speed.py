"""Host-speed calibration for the end-to-end times.

The benchmark runs on a shared virtual machine whose speed changes by up to
nearly 2x for seconds to minutes at a time, depending on what other tenants do.
A step slows every op of a run together, and no statistic inside one run
removes it.  So the worker times a fixed reference computation, the
*calibration*, just before and just after each timed op and each set-up, and
scales the measured time by ``REF_S`` over the mean of the two: a time in
seconds at the speed at which the calibration takes ``REF_S``.

The calibration mixes the three kinds of work the program does: an
interpreter loop (the learners' per-candidate Python), small matrix
products (feature maps, quantisers) and a pass over an array larger than
the per-core caches (the Monte Carlo references).  It lives here, outside the
program, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.011  # the calibration's time in a fast phase of the 2-vCPU Xeon it was made on
REPEATS = 2  # each part is timed this often; its fastest time counts

_SMALL = np.random.default_rng(0).standard_normal((200, 200))
_LARGE = np.random.default_rng(1).standard_normal(1_000_000)  # 8 MB


def _interpreter() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(10_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += len(str(i))
    return total


def _matrix() -> float:
    x = _SMALL
    for _ in range(10):
        x = np.tanh(x @ _SMALL * 0.01) + np.abs(_SMALL).sum(axis=0)
    return float(x.sum())


def _memory() -> float:
    return float(np.abs(_LARGE - 0.5).sum())


def calibrate() -> float:
    """Seconds the reference computation takes now."""
    total = 0.0
    for part in (_interpreter, _matrix, _memory):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def scale(calibration: float) -> float:
    """Factor that turns a time measured now into reference seconds."""
    return REF_S / calibration
