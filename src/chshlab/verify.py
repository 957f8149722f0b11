"""Cross-oracle verification suites behind `chshlab verify`.

Each suite takes a seed and returns its checks as dicts
{"check", "max_dev", "tol"}: the worst deviation from an independent
oracle and the tolerance it must stay within.  The acceptance tests run
the same functions with their own seeds and pinned tolerances.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from .chsh import chsh_operator, commutator_tensor, landau_bound
from .compat import JmStatus, busch_criterion, parent_povm_search, sharpness_threshold
from .entanglement import CanonicalAngles, max_chsh_closed_form, max_chsh_over_unitaries
from .linalg import I2
from .measurement import ChshSetting, X_AXIS, Z_AXIS, noisy_pauli_povm


def f1(seed: int) -> list[dict]:
    """Multistart search vs the closed form on a 5x5x5 (E, theta, phi) grid."""
    worst = 0.0
    for e in np.linspace(0.0, 0.5, 5):
        for th in np.linspace(0.0, pi / 2, 5):
            for ph in np.linspace(0.0, pi / 2, 5):
                angles = CanonicalAngles(theta=float(th), phi=float(ph))
                got, _ = max_chsh_over_unitaries(float(e), angles, restarts=20, seed=seed)
                want = max_chsh_closed_form(float(e), angles.delta)
                worst = max(worst, abs(got - want))
    return [{"check": "closed_vs_numeric", "max_dev": worst, "tol": 1e-6}]


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


def _certificate_defect(parent, p, q) -> float:
    """Worst defect of a parent POVM: sum to I, both marginals, PSD by eigvalsh."""
    effects = (parent.g_pp, parent.g_pm, parent.g_mp, parent.g_mm)
    return max(
        float(np.max(np.abs(sum(effects) - I2))),
        float(np.max(np.abs(parent.g_pp + parent.g_pm - p.effect_plus))),
        float(np.max(np.abs(parent.g_pp + parent.g_mp - q.effect_plus))),
        *(-float(np.min(np.linalg.eigvalsh((g + g.conj().T) / 2))) for g in effects),
    )


def jm(seed: int) -> list[dict]:
    """Analytic criterion vs feasibility search on 200 random unbiased pairs
    away from the boundary, every Compatible parent re-verified, and the
    z/x critical sharpness."""
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
        numeric = parent_povm_search(p, q)
        if numeric.status is not analytic.status:
            disagreements += 1
        if numeric.status is JmStatus.COMPATIBLE:
            worst_defect = max(worst_defect, _certificate_defect(numeric.parent, p, q))
    threshold_dev = abs(sharpness_threshold(Z_AXIS, X_AXIS) - 1.0 / sqrt(2.0))
    return [
        {"check": "analytic_vs_feasibility", "max_dev": float(disagreements), "tol": 0.0},
        {"check": "certificate_defect", "max_dev": worst_defect, "tol": 1e-8},
        {"check": "threshold_z_x", "max_dev": threshold_dev, "tol": 1e-6},
    ]


SUITES = {"f1": f1, "landau": landau, "jm": jm}
