"""Machine-speed reference for the end-to-end metrics.

On a shared host the speed of one CPU drifts by tens of percent within
minutes, and by up to 2x between runs, so raw wall times of the same
code spread far more than any change worth detecting.  The benchmark
therefore also times a fixed reference kernel, interleaved with the
items, and reports each time scaled to reference speed: the time it
would have taken on a machine where the kernel takes REF_S seconds.

The kernel uses no chshlab code, so a change to the package moves the
scaled times exactly as it moves the raw ones; only the machine's speed
cancels.  It mixes what the package's hot paths do: pure-Python float
arithmetic on short lists (the python-backend kernels), and calls into
numpy on 2x2 and 4x4 arrays (linalg, measurement, chsh).
"""

from __future__ import annotations

import statistics
from math import sqrt
from time import perf_counter

import numpy as np

REF_S = 1e-3  # nominal time of one kernel call: scaled times are "at reference speed"
REPS = 3  # kernel calls per speed sample; the sample is their median

_rng = np.random.default_rng(20231215)
_H4 = [(lambda m: m + m.conj().T)(_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))) for _ in range(4)]
_M2 = [_rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2)) for _ in range(4)]
_X0 = [float(v) for v in _rng.normal(size=8)]


def kernel() -> float:
    """One call of the reference kernel: about a millisecond on a current x86 core."""
    acc = 0.0
    for k in range(4):
        acc += float(np.linalg.eigvalsh(_H4[k])[-1])
        m = _M2[k]
        acc += float(np.kron(m, m.conj().T).trace().real)
        acc += float(np.abs(m @ m - m.T @ m).max())
    x = list(_X0)
    for _ in range(120):
        c = [0.5 * (a + b) for a, b in zip(x, x[1:] + x[:1])]
        s = sum(v * v for v in c)
        x = [v / sqrt(1.0 + s) + 0.1 for v in c]
        acc += max(x) - min(x)
    return acc


def sample(reps: int = REPS) -> float:
    """Seconds per kernel call right now: the median of `reps` calls."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
