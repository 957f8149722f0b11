"""Cross-oracle verification suites behind `chshlab verify`.

Each suite takes a seed and returns its checks as dicts
{"check", "max_dev", "tol"}: the worst deviation from an independent
oracle and the tolerance it must stay within.  The acceptance tests run
the same functions with their own seeds and pinned tolerances.  `jm`
reaches the Dykstra kernel only through compat's search, once per pair.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from .chsh import chsh_operator, commutator_tensor, landau_bound
from .compat import (
    DEFAULT_TOL,
    JmStatus,
    ParentPovm,
    _search_parent,
    busch_criterion,
    coexistence_criterion,
    sharpness_threshold,
)
from .entanglement import CanonicalAngles, max_chsh_closed_form, max_chsh_over_unitaries, rotated_chsh
from .linalg import I2
from .measurement import (
    BinaryPovm,
    ChshSetting,
    X_AXIS,
    Z_AXIS,
    from_pauli_coords,
    noisy_pauli_povm,
)

INCOMPATIBLE_FACTOR = 10.0


def f1(seed: int) -> list[dict]:
    """Multistart search vs the closed form on a 5x5x5 (E, theta, phi) grid,
    and the returned unitaries re-scored by the dense `rotated_chsh`."""
    worst = 0.0
    worst_argmax = 0.0
    for e in np.linspace(0.0, 0.5, 5):
        for th in np.linspace(0.0, pi / 2, 5):
            for ph in np.linspace(0.0, pi / 2, 5):
                angles = CanonicalAngles(theta=float(th), phi=float(ph))
                got, (p1, p2) = max_chsh_over_unitaries(float(e), angles, seed=seed)
                want = max_chsh_closed_form(float(e), angles.delta)
                worst = max(worst, abs(got - want))
                worst_argmax = max(worst_argmax, abs(rotated_chsh(float(e), angles, p1, p2) - got))
    return [
        {"check": "closed_vs_numeric", "max_dev": worst, "tol": 1e-6},
        {"check": "argmax_attains_value", "max_dev": worst_argmax, "tol": 1e-9},
    ]


def random_projective_setting(rng) -> ChshSetting:
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return ChshSetting.from_axes(*axes)


def landau(seed: int) -> list[dict]:
    """S² = 4(I+J), the spectral bound vs eigvalsh, and every noncommuting
    setting above 2, over 500 random projective settings."""
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_bound = 0.0
    violations = 0
    for _ in range(500):
        setting = random_projective_setting(rng)
        s = chsh_operator(setting)
        j = commutator_tensor(setting)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(s @ s - 4 * np.eye(4) - 4 * j)))
        )
        rep = landau_bound(setting)
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        worst_bound = max(worst_bound, abs(rep.bound - spectral))
        comm_a = setting.a0 @ setting.a1 - setting.a1 @ setting.a0
        comm_b = setting.b0 @ setting.b1 - setting.b1 @ setting.b0
        if np.max(np.abs(comm_a)) > 1e-9 and np.max(np.abs(comm_b)) > 1e-9:
            if not rep.violates:
                violations += 1
    return [
        {"check": "squared_identity", "max_dev": worst_identity, "tol": 1e-9},
        {"check": "bound_vs_spectrum", "max_dev": worst_bound, "tol": 1e-9},
        {"check": "noncommuting_violates", "max_dev": float(violations), "tol": 0.0},
    ]


def _certificate_defect(p, q, parent: ParentPovm | None) -> float:
    """Worst defect of a parent POVM of (p, q), 0 without one: sum to I,
    both marginals, PSD by eigvalsh."""
    if parent is None:
        return 0.0
    effects = (parent.g_pp, parent.g_pm, parent.g_mp, parent.g_mm)
    return max(
        float(np.max(np.abs(sum(effects) - I2))),
        float(np.max(np.abs(parent.g_pp + parent.g_pm - p.effect_plus))),
        float(np.max(np.abs(parent.g_pp + parent.g_mp - q.effect_plus))),
        *(-float(np.min(np.linalg.eigvalsh((g + g.conj().T) / 2))) for g in effects),
    )


def kernel_verdict(p: BinaryPovm, q: BinaryPovm) -> tuple[JmStatus, ParentPovm | None]:
    """The raw Dykstra kernel's own verdict, sharing no code with either
    criterion (Compatible at residual <= DEFAULT_TOL, Incompatible once the
    residual plateaus above 10·DEFAULT_TOL, Undecided otherwise), and the
    parent the same search built, if any."""
    parent, residual, plateaued = _search_parent(p, q)
    if parent is not None:
        return JmStatus.COMPATIBLE, parent
    if plateaued and residual > INCOMPATIBLE_FACTOR * DEFAULT_TOL:
        return JmStatus.INCOMPATIBLE, None
    return JmStatus.UNDECIDED, None


def _random_biased_povm(rng) -> BinaryPovm:
    """(c0·I + r·n·σ)/2 with c0 uniform in [0, 2] and r uniform in
    [0.8, 1]·min(c0, 2-c0): sharp enough that about one pair in seven
    is incompatible (one in a hundred with r from 0)."""
    c0 = rng.uniform(0.0, 2.0)
    r = rng.uniform(0.8, 1.0) * min(c0, 2.0 - c0)
    n = rng.normal(size=3)
    return BinaryPovm.from_effect(from_pauli_coords([c0, *(r * n / np.linalg.norm(n))]))


def jm(seed: int) -> list[dict]:
    """Busch's criterion vs the raw Dykstra kernel on 200 random unbiased
    pairs away from the boundary, the coexistence criterion vs the kernel
    on 200 random biased pairs wherever the kernel decides, every parent
    that search built re-verified, and the z/x critical sharpness."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    worst_defect = 0.0
    tested = 0
    while tested < 200:
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        lam = rng.uniform(0.0, 1.0)
        p = noisy_pauli_povm(axes[0], lam)
        q = noisy_pauli_povm(axes[1], lam)
        analytic = busch_criterion(p, q)
        if abs(analytic.margin) < 5e-3:
            continue
        tested += 1
        oracle, parent = kernel_verdict(p, q)
        if oracle is not analytic.status:
            disagreements += 1
        worst_defect = max(worst_defect, _certificate_defect(p, q, parent))
    biased_disagreements = 0
    for _ in range(200):
        p, q = _random_biased_povm(rng), _random_biased_povm(rng)
        oracle, parent = kernel_verdict(p, q)
        if oracle is not JmStatus.UNDECIDED and oracle is not coexistence_criterion(p, q).status:
            biased_disagreements += 1
        worst_defect = max(worst_defect, _certificate_defect(p, q, parent))
    threshold_dev = abs(sharpness_threshold(Z_AXIS, X_AXIS) - 1.0 / sqrt(2.0))
    return [
        {"check": "analytic_vs_feasibility", "max_dev": float(disagreements), "tol": 0.0},
        {"check": "criterion_vs_feasibility", "max_dev": float(biased_disagreements), "tol": 0.0},
        {"check": "certificate_defect", "max_dev": worst_defect, "tol": 1e-8},
        {"check": "threshold_z_x", "max_dev": threshold_dev, "tol": 1e-6},
    ]


SUITES = {"f1": f1, "landau": landau, "jm": jm}
