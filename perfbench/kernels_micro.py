"""Micro-timings of the three hot kernels on the backend chshlab selected.

These are the timings benchmarks/bench_kernels.py takes: the CHSH
objective at 2000 points, 20 Nelder-Mead runs and 20 Dykstra runs on an
incompatible pair (a full plateau run).  Each is the best of `repeat`
rounds, in microseconds per call.
"""

from __future__ import annotations

import time

import numpy as np

from chshlab import _kernels
from chshlab.chsh import chsh_operator
from chshlab.entanglement import CanonicalAngles, canonical_setting


def _best_us(fn, calls, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def kernel_micro(repeat: int = 3) -> dict[str, float]:
    s = np.ascontiguousarray(chsh_operator(canonical_setting(CanonicalAngles(theta=1.2, phi=0.9))).real.ravel())
    xs = np.random.default_rng(7).uniform(0.0, 2 * np.pi, size=(2000, 6))
    m = np.array([1.0, 0.0, 0.0, 0.75])
    n = np.array([1.0, 0.75, 0.0, 0.0])
    x0 = (m + n) / 2 - np.array([0.5, 0.0, 0.0, 0.0])

    def objective():
        for x in xs:
            _kernels.chsh_objective(s, 0.3, x)

    def maximize():
        for x in xs[:20]:
            _kernels.maximize_chsh(s, 0.3, x)

    def dykstra():
        for _ in range(20):
            _kernels.dykstra_feasibility(m, n, x0, 1e-9, 200_000)

    return {
        "kernels.chsh_objective.micro_us": _best_us(objective, len(xs), repeat),
        "kernels.maximize_chsh.micro_us": _best_us(maximize, 20, repeat),
        "kernels.dykstra_feasibility.micro_us": _best_us(dykstra, 20, repeat),
    }
