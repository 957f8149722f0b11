"""Joint measurability of binary qubit POVM pairs.

Two exact criteria decide (in)compatibility: Busch's for unbiased pairs,
and the coexistence criterion of Yu, Liu, Li and Oh for any pair.  A
parent-POVM search by Dykstra's alternating projections builds the
certificate of a compatible pair, whose effects go below zero by at most
the one fixed residual tolerance DEFAULT_TOL; it decides nothing the
criterion has ruled out.  That search, `_search_parent`, is the one
place that runs the Dykstra kernel.  `verify` reads each of its runs two
ways: as the kernel's own verdict, which shares no code with either
formula and is their independent oracle, and as the certificate it
re-checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import _kernels
from .errors import NotUnbiasedError
from .linalg import I2
from .measurement import BinaryPovm, _pauli_entries, unit_axis

UNBIASED_TOL = 1e-9
DEFAULT_TOL = 1e-9
DYKSTRA_MAX_ITER = 200_000


class JmStatus(enum.Enum):
    COMPATIBLE = "Compatible"
    INCOMPATIBLE = "Incompatible"
    UNDECIDED = "Undecided"


class JmMethod(enum.Enum):
    ANALYTIC_UNBIASED = "AnalyticUnbiased"
    ANALYTIC = "Analytic"
    FEASIBILITY = "Feasibility"


@dataclass(frozen=True, eq=False)
class ParentPovm:
    """Four-outcome joint measurement whose marginals recover both POVMs.

    g[a][b] for outcomes (a, b) in {+,-}²: row sums give the first POVM,
    column sums the second.  residual is the worst PSD defect certified
    by the solver; the marginal identities hold by construction.
    Compared and hashed by identity: its blocks are arrays.
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

    margin is the signed slack of the method that decided, nonnegative
    iff that method calls the pair compatible:
    - AnalyticUnbiased (busch_criterion): 2 - (|a+b| + |a-b|);
    - Analytic (coexistence_criterion): (m·n - xy)² minus
      (1 - Fx² - Fy²)(1 - x²/Fx² - y²/Fy²), or -‖[E, F]‖ when the
      effects commute or one is a sharp unbiased projector (F = 0);
    - Feasibility (parent_povm_search's Compatible and Undecided): minus
      the final residual of the search, which a Compatible verdict holds
      to at most DEFAULT_TOL.
    """

    status: JmStatus
    margin: float
    method: JmMethod
    parent: ParentPovm | None = None


def _unbiased_bloch(povm: BinaryPovm) -> np.ndarray:
    coords = povm.coords
    if abs(coords[0] - 1.0) > UNBIASED_TOL:
        raise NotUnbiasedError(
            f"effect trace {coords[0]!r} != 1: POVM is biased, analytic criterion does not apply"
        )
    return coords[1:]


def _busch_total(a: np.ndarray, b: np.ndarray) -> float:
    """|a+b| + |a-b| of two real 3-vectors."""
    s, d = a + b, a - b
    return sqrt(s.dot(s)) + sqrt(d.dot(d))  # numpy.linalg.norm, bit for bit


def busch_criterion(p: BinaryPovm, q: BinaryPovm) -> JmVerdict:
    """Exact compatibility test for unbiased qubit POVMs (I ± a·σ)/2.

    The pair is jointly measurable iff |a+b| + |a-b| <= 2.
    """
    margin = 2.0 - _busch_total(_unbiased_bloch(p), _unbiased_bloch(q))
    status = JmStatus.COMPATIBLE if margin >= 0.0 else JmStatus.INCOMPATIBLE
    return JmVerdict(status=status, margin=margin, method=JmMethod.ANALYTIC_UNBIASED)


def _sharpness(x: float, r: float) -> float:
    """F = ½(√((1+x)² - r²) + √((1-x)² - r²)) of the effect ((1+x)I + m·σ)/2
    with |m| = r; each radicand is factored, and clipped at the -1e-12 an
    effect's eigenvalues may reach."""
    return 0.5 * (
        sqrt(max(0.0, (1.0 + x - r) * (1.0 + x + r)))
        + sqrt(max(0.0, (1.0 - x - r) * (1.0 - x + r)))
    )


def coexistence_criterion(p: BinaryPovm, q: BinaryPovm) -> JmVerdict:
    """Exact compatibility test for any two binary qubit POVMs.

    With plus-effects E = ((1+x)I + m·σ)/2 and F = ((1+y)I + n·σ)/2 the
    pair is jointly measurable iff
    (1 - Fx² - Fy²)(1 - x²/Fx² - y²/Fy²) <= (m·n - xy)², where
    Fx = ½(√((1+x)² - |m|²) + √((1-x)² - |m|²))
    (Yu, Liu, Li, Oh, Phys. Rev. A 81, 062116 (2010)).  Fx = 0 only for a
    sharp unbiased projector, which is jointly measurable exactly with the
    effects it commutes with; commuting effects (m × n = 0) are decided as
    such, since the formula puts many of them on its zero set, where
    roundoff picks the sign.  x = y = 0 is Busch's criterion.
    """
    c0, a1, a2, a3 = p.coords.tolist()
    d0, b1, b2, b3 = q.coords.tolist()
    x, y = c0 - 1.0, d0 - 1.0
    fx = _sharpness(x, sqrt(a1 * a1 + a2 * a2 + a3 * a3))
    fy = _sharpness(y, sqrt(b1 * b1 + b2 * b2 + b3 * b3))
    cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    if fx == 0.0 or fy == 0.0 or cross == (0.0, 0.0, 0.0):
        # commuting effects are jointly measurable (by their product), and a
        # sharp unbiased projector only with the effects it commutes with;
        # the margin is -‖[E, F]‖ = -|m × n|/2, exact where the formula
        # would round a zero
        margin = 0.0 - 0.5 * sqrt(sum(c * c for c in cross))  # 0.0, never -0.0
    else:
        dot = a1 * b1 + a2 * b2 + a3 * b3
        lhs = (1.0 - fx * fx - fy * fy) * (1.0 - (x / fx) ** 2 - (y / fy) ** 2)
        margin = (dot - x * y) ** 2 - lhs
    status = JmStatus.COMPATIBLE if margin >= 0.0 else JmStatus.INCOMPATIBLE
    return JmVerdict(status=status, margin=margin, method=JmMethod.ANALYTIC)


def _search_parent(p: BinaryPovm, q: BinaryPovm) -> tuple[ParentPovm | None, float, bool]:
    """(parent, residual, plateaued) of one Dykstra run: the free block G(++)
    has four Pauli coordinates, and G, M-G, N-G and I-M-N+G must all be
    PSD.  parent is None unless the residual reached DEFAULT_TOL."""
    m, n = p.coords.tolist(), q.coords.tolist()
    x0 = [(a + b) / 2.0 for a, b in zip(m, n)]
    x0[0] -= 0.5
    x, residual, _, plateaued = _kernels.dykstra_feasibility(m, n, x0, DEFAULT_TOL, DYKSTRA_MAX_ITER)
    if residual > DEFAULT_TOL:
        return None, residual, plateaued
    g = np.array(_pauli_entries(*x))
    m_plus, n_plus = p.effect_plus, q.effect_plus
    return ParentPovm(g, m_plus - g, n_plus - g, I2 - m_plus - n_plus + g, residual), residual, plateaued


def parent_povm_search(p: BinaryPovm, q: BinaryPovm) -> JmVerdict:
    """Decide by coexistence_criterion; certify compatibility with a parent POVM.

    A pair that violates the criterion by more than DEFAULT_TOL is
    Incompatible, with the criterion's verdict and no search.  Any other
    pair goes to one _search_parent run.  Compatible verdicts ship an
    explicit ParentPovm with residual <= DEFAULT_TOL, the one fixed
    tolerance.  Undecided means the pair is compatible, or within
    DEFAULT_TOL of the boundary, but the search stopped (its residual
    plateaued, or DYKSTRA_MAX_ITER ran out) above it: a thin compatible
    set can end there.
    """
    verdict = coexistence_criterion(p, q)
    if verdict.margin < -DEFAULT_TOL:
        return verdict
    parent, residual, _ = _search_parent(p, q)
    status = JmStatus.UNDECIDED if parent is None else JmStatus.COMPATIBLE
    # 0.0 - residual: 0.0, never -0.0, at residual 0
    return JmVerdict(status, margin=0.0 - residual, method=JmMethod.FEASIBILITY, parent=parent)


def sharpness_threshold(n1, n2) -> float:
    """Critical sharpness λ* = min(1, 2/(|n1+n2| + |n1-n2|)) of the noisy-Pauli
    pair (I ± λ n·σ)/2 along two axes: compatible for λ <= λ*, incompatible
    above (Busch, Phys. Rev. D 33, 2253 (1986)).  1/√2 for orthogonal axes."""
    return min(1.0, 2.0 / _busch_total(unit_axis(n1), unit_axis(n2)))
