"""Joint measurability of binary qubit POVM pairs.

Two routes certify (in)compatibility: the exact analytic criterion for
unbiased pairs, and a parent-POVM feasibility search by Dykstra's
alternating projections for arbitrary pairs.  The two are independent
and cross-validated in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidToleranceError, NotUnbiasedError
from .linalg import I2
from .measurement import BinaryPovm, from_pauli_coords, pauli_coords, unit_axis

UNBIASED_TOL = 1e-9
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000
PLATEAU_WINDOW = 500
PLATEAU_RTOL = 1e-12
INCOMPATIBLE_FACTOR = 10.0


class JmStatus(enum.Enum):
    COMPATIBLE = "Compatible"
    INCOMPATIBLE = "Incompatible"
    UNDECIDED = "Undecided"


class JmMethod(enum.Enum):
    ANALYTIC_UNBIASED = "AnalyticUnbiased"
    FEASIBILITY = "Feasibility"


@dataclass(frozen=True)
class ParentPovm:
    """Four-outcome joint measurement whose marginals recover both POVMs.

    g[a][b] for outcomes (a, b) in {+,-}²: row sums give the first POVM,
    column sums the second.  residual is the worst PSD defect certified
    by the solver; the marginal identities hold by construction.
    """

    g_pp: np.ndarray
    g_pm: np.ndarray
    g_mp: np.ndarray
    g_mm: np.ndarray
    residual: float

    def effects(self) -> dict[tuple[int, int], np.ndarray]:
        return {
            (+1, +1): self.g_pp,
            (+1, -1): self.g_pm,
            (-1, +1): self.g_mp,
            (-1, -1): self.g_mm,
        }


@dataclass(frozen=True)
class JmVerdict:
    """Compatibility decision with its certificate.

    margin is the signed slack: for the analytic criterion it is
    2 - (|a+b| + |a-b|), nonnegative iff compatible; for the feasibility
    route it is minus the final residual.
    """

    status: JmStatus
    margin: float
    method: JmMethod
    parent: ParentPovm | None = None


def _unbiased_bloch(povm: BinaryPovm) -> np.ndarray:
    coords = pauli_coords(povm.effect_plus)
    if abs(coords[0] - 1.0) > UNBIASED_TOL:
        raise NotUnbiasedError(
            f"effect trace {coords[0]!r} != 1: POVM is biased, analytic criterion does not apply"
        )
    return coords[1:]


def busch_criterion(p: BinaryPovm, q: BinaryPovm) -> JmVerdict:
    """Exact compatibility test for unbiased qubit POVMs (I ± a·σ)/2.

    The pair is jointly measurable iff |a+b| + |a-b| <= 2.
    """
    a = _unbiased_bloch(p)
    b = _unbiased_bloch(q)
    total = float(np.linalg.norm(a + b) + np.linalg.norm(a - b))
    margin = 2.0 - total
    status = JmStatus.COMPATIBLE if margin >= 0.0 else JmStatus.INCOMPATIBLE
    return JmVerdict(status=status, margin=margin, method=JmMethod.ANALYTIC_UNBIASED)


def check_tolerance(tol: float) -> float:
    """tol itself if it is positive and finite, else InvalidToleranceError."""
    if not 0.0 < tol < np.inf:
        raise InvalidToleranceError(f"tol must be positive and finite, got {tol}")
    return tol


def parent_povm_search(
    p: BinaryPovm,
    q: BinaryPovm,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> JmVerdict:
    """Search for a parent POVM by alternating projections.

    The free block G(++) has four real Pauli coordinates; the four
    constraints G, M-G, N-G and I-M-N+G must be simultaneously PSD.
    Compatible verdicts ship an explicit ParentPovm with residual <= tol.
    Incompatible requires the residual to plateau (relative change below
    1e-12 over 500 iterations) at more than 10·tol; anything else is
    reported Undecided rather than guessed.
    """
    check_tolerance(tol)
    if max_iter < 1:
        raise InvalidToleranceError(f"max_iter must be >= 1, got {max_iter}")
    m = pauli_coords(p.effect_plus)
    n = pauli_coords(q.effect_plus)
    x0 = (m + n) / 2.0 - np.array([0.5, 0.0, 0.0, 0.0])
    x, residual, _, plateaued = _kernels.dykstra_feasibility(
        m, n, x0, tol, max_iter, PLATEAU_WINDOW, PLATEAU_RTOL
    )
    if residual <= tol:
        g = from_pauli_coords(x)
        m_plus = p.effect_plus
        n_plus = q.effect_plus
        parent = ParentPovm(
            g_pp=g,
            g_pm=m_plus - g,
            g_mp=n_plus - g,
            g_mm=I2 - m_plus - n_plus + g,
            residual=float(residual),
        )
        return JmVerdict(
            status=JmStatus.COMPATIBLE,
            margin=-float(residual),
            method=JmMethod.FEASIBILITY,
            parent=parent,
        )
    if plateaued and residual > INCOMPATIBLE_FACTOR * tol:
        status = JmStatus.INCOMPATIBLE
    else:
        status = JmStatus.UNDECIDED
    return JmVerdict(status=status, margin=-float(residual), method=JmMethod.FEASIBILITY)


def sharpness_threshold(n1, n2) -> float:
    """Critical sharpness λ* = min(1, 2/(|n1+n2| + |n1-n2|)) of the noisy-Pauli
    pair (I ± λ n·σ)/2 along two axes: compatible for λ <= λ*, incompatible
    above (Busch, Phys. Rev. D 33, 2253 (1986)).  1/√2 for orthogonal axes."""
    a = unit_axis(n1)
    b = unit_axis(n2)
    return min(1.0, 2.0 / float(np.linalg.norm(a + b) + np.linalg.norm(a - b)))
