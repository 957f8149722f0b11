"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.  The check dicts in `chshlab.verify` carry the tolerances that
`chshlab verify` enforces; where a criterion reads a verify suite, it
re-pins its own tolerance here, independently of those.
"""

import json
import time

import numpy as np
import pytest

from chshlab import verify
from chshlab._kernels import BACKEND
from chshlab.chsh import (
    born_table,
    chsh_from_table,
    max_over_states,
    sample_estimate,
)
from chshlab.cli import main
from chshlab.compat import JmStatus, busch_criterion, parent_povm_search, sharpness_threshold
from chshlab.entanglement import (
    CanonicalAngles,
    entanglement_threshold,
    incompatibility_monotonicity,
    max_chsh_closed_form,
    nonlocality_region,
    rotated_chsh,
    schmidt_state,
    stationarity_ratios,
    stationary_unitary_params,
)
from chshlab.measurement import ChshSetting, X_AXIS, Z_AXIS, noisy_family_povms, noisy_pauli_povm

TSIRELSON = 2.8284271247461903
INV_SQRT2 = 0.7071067811865475


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def max_devs(checks):
    """{check name: max_dev} of a verify suite's result."""
    return {c["check"]: c["max_dev"] for c in checks}


def test_c1_tsirelson_reproduction(capsys):
    rc = main(["chsh", "--canonical", "pi/2,pi/2", "--state", "phi+", "--precision", "15"])
    out = capsys.readouterr().out
    assert rc == 0
    value = json.loads(out)["value"]
    assert abs(value - TSIRELSON) <= 1e-9
    with capsys.disabled():
        report(1, f"CLI canonical pi/2,pi/2 with phi+ gives {value!r}")


def test_c2_spectral_identity(capsys):
    dev = max_devs(verify.landau(501))  # bound checked against eigvalsh
    assert dev["squared_identity"] <= 1e-9
    assert dev["bound_vs_spectrum"] <= 1e-9
    assert dev["noncommuting_violates"] == 0
    with capsys.disabled():
        report(2, f"500 settings: |S²-4I-4J| <= {dev['squared_identity']:.2e}, "
                  f"|bound-||S||| <= {dev['bound_vs_spectrum']:.2e}, every noncommuting one > 2")


def test_c3_povm_window(capsys):
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 11):
        setting = ChshSetting.from_povms(*noisy_family_povms(float(lam)))
        value = max_over_states(setting).value
        worst = max(worst, abs(value - TSIRELSON * lam * lam))
    assert worst <= 1e-9

    threshold = sharpness_threshold(Z_AXIS, X_AXIS)
    assert abs(threshold - INV_SQRT2) <= 1e-6
    # feasibility oracle agrees on both sides of the threshold
    for lam, expected in ((threshold - 5e-3, JmStatus.COMPATIBLE),
                          (threshold + 5e-3, JmStatus.INCOMPATIBLE)):
        p = noisy_pauli_povm(Z_AXIS, lam)
        q = noisy_pauli_povm(X_AXIS, lam)
        assert parent_povm_search(p, q).status is expected
        assert busch_criterion(p, q).status is expected

    # the window (1/sqrt2, 2^(-1/4)]: incompatible yet never Bell-violating
    upper = 2.0 ** -0.25
    assert INV_SQRT2 < upper
    for lam in (0.71, 0.75, 0.80, upper):
        p = noisy_pauli_povm(Z_AXIS, lam)
        q = noisy_pauli_povm(X_AXIS, lam)
        assert busch_criterion(p, q).status is JmStatus.INCOMPATIBLE
        setting = ChshSetting.from_povms(*noisy_family_povms(lam))
        assert max_over_states(setting).value <= 2.0 + 1e-12
    with capsys.disabled():
        report(3, f"max deviation from quadratic scaling {worst:.2e}; "
                  f"threshold {threshold:.8f}; window ({INV_SQRT2:.6f}, {upper:.6f}] certified")


def test_c4_feasibility_soundness(capsys):
    dev = max_devs(verify.jm(502))
    assert dev["analytic_vs_feasibility"] == 0
    assert dev["criterion_vs_feasibility"] == 0
    assert dev["certificate_defect"] <= 1e-8  # sum to I, marginals, PSD by eigvalsh
    assert dev["threshold_z_x"] <= 1e-6
    with capsys.disabled():
        report(4, "200/200 unbiased and every decided biased pair agree with the raw kernel, "
                  "every compatible parent re-verified "
                  f"(worst defect {dev['certificate_defect']:.2e})")


def test_c5_closed_form_vs_optimizer(capsys):
    start = time.perf_counter()
    dev = max_devs(verify.f1(801))
    elapsed = time.perf_counter() - start
    worst = dev["closed_vs_numeric"]
    assert worst <= 1e-6
    assert dev["argmax_attains_value"] <= 1e-9  # the returned unitaries, re-scored densely
    assert elapsed <= 300.0
    with capsys.disabled():
        report(5, f"5x5x5 grid, 20 restarts: max deviation {worst:.2e} "
                  f"in {elapsed:.1f}s on '{BACKEND}' backend")


def test_c6_stationarity_consistency(capsys):
    worst_circle = 0.0
    for theta in np.linspace(0.0, np.pi / 2, 100):
        for phi in np.linspace(0.0, np.pi / 2, 100):
            angles = CanonicalAngles(theta=float(theta), phi=float(phi))
            if angles.delta > 1.0 - 1e-9:
                continue
            (ss, cs), (sd, cd) = stationarity_ratios(angles)
            worst_circle = max(worst_circle, abs(ss * ss + cs * cs - 1.0),
                               abs(sd * sd + cd * cd - 1.0))
    assert worst_circle <= 1e-10

    worst_sub = 0.0
    for e in (0.1, 0.3, 0.5):
        for theta in np.linspace(0.0, np.pi / 2, 25):
            for phi in np.linspace(0.0, np.pi / 2, 25):
                angles = CanonicalAngles(theta=float(theta), phi=float(phi))
                if angles.delta > 1.0 - 1e-6:
                    continue
                p1, p2 = stationary_unitary_params(angles)
                dev = abs(rotated_chsh(e, angles, p1, p2)
                          - max_chsh_closed_form(e, angles.delta))
                worst_sub = max(worst_sub, dev)
    assert worst_sub <= 1e-9
    with capsys.disabled():
        report(6, f"sin²+cos² off by <= {worst_circle:.2e}; "
                  f"stationary substitution off by <= {worst_sub:.2e}")


def test_c7_entanglement_threshold(capsys):
    thr = entanglement_threshold()
    assert abs(thr - 0.5 * (1.0 - np.sqrt(2.0 * np.sqrt(2.0) - 2.0))) <= 1e-15
    assert abs(thr - 0.0449100) <= 2e-7  # quoted approximation
    assert abs(max_chsh_closed_form(thr, 1.0) - 2.0) <= 1e-10
    e_above = thr + 1e-3
    deltas = np.linspace(1e-3, 1.0, 1000)
    assert all(nonlocality_region(e_above, float(d)) for d in deltas)
    with capsys.disabled():
        report(7, f"threshold {thr:.9f}; boundary value 2 within 1e-10; "
                  f"E=threshold+1e-3 nonlocal on all 1000 grid points")


def test_c8_monotonicity(capsys):
    max_ent = incompatibility_monotonicity(0.5)
    assert max_ent.monotone
    assert max_ent.increasing is True
    partial = incompatibility_monotonicity(0.25)
    assert not partial.monotone
    assert partial.extremum_delta is not None
    assert max_chsh_closed_form(0.03, 0.1) > 2.0 > max_chsh_closed_form(0.03, 1.0)
    with capsys.disabled():
        report(8, f"E=1/2 monotone increasing; E=1/4 interior maximum at "
                  f"delta={partial.extremum_delta:.4f}; witness pair holds")


def test_c9_finite_shot_sanity(capsys):
    shots = 1_000_000
    fixtures = [
        ("phi+ optimal sharp", noisy_family_povms(1.0), schmidt_state(0.5).density_matrix()),
        ("phi+ noisy 0.8", noisy_family_povms(0.8), schmidt_state(0.5).density_matrix()),
        ("maximally mixed", noisy_family_povms(1.0), np.eye(4) / 4),
    ]
    sigmas = []
    for name, povms, rho in fixtures:
        exact = chsh_from_table(born_table(*povms, rho))
        first = sample_estimate(povms, rho, shots, seed=90125)
        again = sample_estimate(povms, rho, shots, seed=90125)
        assert first.estimate == again.estimate
        assert first.std_error == again.std_error
        assert np.array_equal(first.correlators, again.correlators)
        assert abs(first.estimate - exact) <= 5 * first.std_error, name
        sigmas.append(abs(first.estimate - exact) / first.std_error)
    with capsys.disabled():
        report(9, "3 fixtures at 1e6 shots within 5 sigma "
                  f"(worst {max(sigmas):.2f}), seeded reruns identical")
