"""Joint measurability: analytic criterion, feasibility solver, thresholds."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chshlab import _kernels, verify
from chshlab.compat import (
    DEFAULT_TOL,
    JmMethod,
    JmStatus,
    _search_parent,
    busch_criterion,
    coexistence_criterion,
    parent_povm_search,
    sharpness_threshold,
)
from chshlab.errors import NotUnbiasedError
from chshlab.linalg import I2
from chshlab.measurement import BinaryPovm, X_AXIS, Z_AXIS, from_pauli_coords, noisy_pauli_povm
from chshlab.verify import kernel_verdict

from conftest import random_axis

INV_SQRT2 = 0.7071067811865475
# white noise that makes exact any parent the kernel certifies: mixing
# both effects with ε of it maps a parent G to (1 - ε)G + εI/4, and the
# kernel's parents miss PSD by at most DEFAULT_TOL
NOISE = 10 * DEFAULT_TOL


def verify_parent(parent, p, q, tol):
    """Independent certificate check: marginals and PSD via numpy only."""
    effects = [parent.g_pp, parent.g_pm, parent.g_mp, parent.g_mm]
    total = sum(effects)
    assert np.max(np.abs(total - I2)) <= tol
    assert np.max(np.abs(parent.g_pp + parent.g_pm - p.effect_plus)) <= tol
    assert np.max(np.abs(parent.g_pp + parent.g_mp - q.effect_plus)) <= tol
    for g in effects:
        sym = (g + g.conj().T) / 2
        assert float(np.min(np.linalg.eigvalsh(sym))) >= -tol


@st.composite
def _axis(draw):
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-3 else Z_AXIS


@st.composite
def _biased_povm(draw, spread=st.floats(0.0, 1.0)):
    """(c0·I + r·n·σ)/2 with eigenvalues (c0 ± r)/2 inside [0, 1]; r is the
    drawn spread times its largest value min(c0, 2 - c0)."""
    c0 = draw(st.floats(0.0, 2.0))
    r = draw(spread) * min(c0, 2.0 - c0)
    n = draw(_axis())
    return BinaryPovm.from_effect(from_pauli_coords([c0, *(r * n)]))


def _near_sharp_povm():
    """Eigenvalues within 10% of the edges of [0, 1] but not on them; about
    a quarter of such pairs are incompatible."""
    return _biased_povm(spread=st.floats(0.9, 0.999))


def _commutator_norm(p, q):
    c = p.effect_plus @ q.effect_plus - q.effect_plus @ p.effect_plus
    return float(np.linalg.norm(c, 2))


class TestBuschCriterion:
    def test_below_threshold_compatible(self):
        v = busch_criterion(noisy_pauli_povm(Z_AXIS, 0.7), noisy_pauli_povm(X_AXIS, 0.7))
        assert v.status is JmStatus.COMPATIBLE
        assert v.method is JmMethod.ANALYTIC_UNBIASED

    def test_above_threshold_incompatible(self):
        v = busch_criterion(noisy_pauli_povm(Z_AXIS, 0.8), noisy_pauli_povm(X_AXIS, 0.8))
        assert v.status is JmStatus.INCOMPATIBLE

    def test_boundary_margin_zero(self):
        # criterion sum is exactly 2*sqrt(2)*lambda for orthogonal axes
        v = busch_criterion(
            noisy_pauli_povm(Z_AXIS, INV_SQRT2), noisy_pauli_povm(X_AXIS, INV_SQRT2)
        )
        assert v.status is JmStatus.COMPATIBLE
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_rejects_biased(self):
        biased = BinaryPovm.from_effect(np.diag([0.9, 0.3]))
        with pytest.raises(NotUnbiasedError):
            busch_criterion(biased, noisy_pauli_povm(X_AXIS, 0.5))

    def test_symmetric_in_arguments(self, rng):
        for _ in range(20):
            p = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            q = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            assert busch_criterion(p, q).status is busch_criterion(q, p).status


def _with_noise(povm):
    """The POVM with effect (1 - ε)E+ + εI/2, ε = NOISE."""
    return BinaryPovm.from_effect((1.0 - NOISE) * povm.effect_plus + (NOISE / 2) * I2)


def _agrees_with_kernel(p, q):
    """The criterion's status is the raw kernel's wherever the kernel
    decides and the status survives NOISE on both effects.

    The kernel certifies a parent within DEFAULT_TOL of PSD, and near the
    boundary that defect is second order in the criterion's margin: for a
    sharp projector along y and the effect (I + 0.5σy + tσz)/2, the
    margin is -t/2 and the kernel's residual (4/3)·(t/2)².  A pair whose
    status NOISE flips lies inside the kernel's tolerance of the boundary,
    where the two verdicts need not agree."""
    verdict = coexistence_criterion(p, q)
    if coexistence_criterion(_with_noise(p), _with_noise(q)).status is not verdict.status:
        return
    oracle = kernel_verdict(p, q)[0]
    if oracle is not JmStatus.UNDECIDED:
        assert verdict.status is oracle


class TestCoexistenceCriterion:
    """The exact criterion for any pair, against the raw Dykstra kernel
    (verify.kernel_verdict), which shares no code with the formula."""

    @settings(max_examples=200, deadline=None)
    @given(_biased_povm(), _biased_povm())
    # Incompatible by a margin of -2.98e-8, while the kernel certifies a
    # parent with a residual of 1.2e-15
    @example(
        BinaryPovm.from_effect(from_pauli_coords([1.0, 0.0, 1.0, 0.0])),
        BinaryPovm.from_effect(from_pauli_coords([1.0, 0.0, 0.5, 2.0**-24])),
    )
    def test_agrees_with_kernel_on_biased_pairs(self, p, q):
        _agrees_with_kernel(p, q)

    @settings(max_examples=100, deadline=None)
    @given(_near_sharp_povm(), _near_sharp_povm())
    def test_agrees_with_kernel_on_near_sharp_pairs(self, p, q):
        _agrees_with_kernel(p, q)

    @settings(max_examples=300, deadline=None)
    @given(_axis(), _axis(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_matches_busch_on_unbiased_pairs(self, n1, n2, lam1, lam2):
        p, q = noisy_pauli_povm(n1, lam1), noisy_pauli_povm(n2, lam2)
        busch = busch_criterion(p, q)
        verdict = coexistence_criterion(p, q)
        assert verdict.method is JmMethod.ANALYTIC
        if abs(busch.margin) > 1e-9:  # both margins vanish on the boundary
            assert verdict.status is busch.status

    def test_commuting_sharp_projectors(self):
        z = noisy_pauli_povm(Z_AXIS, 1.0)
        for q in (z, noisy_pauli_povm(-Z_AXIS, 1.0), BinaryPovm.from_effect(np.diag([0.9, 0.3]))):
            v = coexistence_criterion(z, q)
            assert v.status is JmStatus.COMPATIBLE
            assert v.margin == 0.0
            assert kernel_verdict(z, q)[0] is JmStatus.COMPATIBLE

    def test_noncommuting_sharp_projector(self):
        z = noisy_pauli_povm(Z_AXIS, 1.0)
        # a sharp projector is compatible with no effect it fails to commute
        # with, however unsharp
        for q in (noisy_pauli_povm(X_AXIS, 1.0), noisy_pauli_povm(X_AXIS, 0.3)):
            v = coexistence_criterion(z, q)
            assert v.status is JmStatus.INCOMPATIBLE
            assert v.margin == pytest.approx(-_commutator_norm(z, q), abs=1e-15)
            assert kernel_verdict(z, q)[0] is JmStatus.INCOMPATIBLE

    def test_zero_and_identity_effects(self, rng):
        for effect in (np.zeros((2, 2)), np.eye(2)):
            trivial = BinaryPovm.from_effect(effect)
            for q in (
                noisy_pauli_povm(X_AXIS, 1.0),
                noisy_pauli_povm(random_axis(rng), 0.8),
                BinaryPovm.from_effect(np.diag([0.9, 0.3])),
            ):
                assert coexistence_criterion(trivial, q).status is JmStatus.COMPATIBLE
                assert coexistence_criterion(q, trivial).status is JmStatus.COMPATIBLE
                assert kernel_verdict(trivial, q)[0] is JmStatus.COMPATIBLE

    def test_identical_effects(self, rng):
        for p in (
            noisy_pauli_povm(random_axis(rng), 0.9),
            noisy_pauli_povm(X_AXIS, 1.0),
            BinaryPovm.from_effect(from_pauli_coords([0.7, 0.0, 0.5, 0.0])),
        ):
            assert coexistence_criterion(p, p).status is JmStatus.COMPATIBLE
            assert kernel_verdict(p, p)[0] is JmStatus.COMPATIBLE

    def test_symmetric_in_arguments(self, rng):
        for _ in range(20):
            p = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            q = BinaryPovm.from_effect(from_pauli_coords([0.8, *(0.6 * random_axis(rng))]))
            assert coexistence_criterion(p, q).margin == pytest.approx(
                coexistence_criterion(q, p).margin, abs=1e-15
            )


class TestParentPovmSearch:
    def test_compatible_pair_ships_verified_parent(self):
        p = noisy_pauli_povm(Z_AXIS, 0.5)
        q = noisy_pauli_povm(X_AXIS, 0.5)
        v = parent_povm_search(p, q)
        assert v.status is JmStatus.COMPATIBLE
        assert v.parent is not None
        assert v.parent.residual <= 1e-9
        verify_parent(v.parent, p, q, 1e-8)

    def test_self_compatibility(self):
        p = noisy_pauli_povm(Z_AXIS, 0.9)
        v = parent_povm_search(p, p)
        assert v.status is JmStatus.COMPATIBLE
        verify_parent(v.parent, p, p, 1e-8)

    def test_incompatible_pair(self):
        p = noisy_pauli_povm(Z_AXIS, 0.9)
        q = noisy_pauli_povm(X_AXIS, 0.9)
        v = parent_povm_search(p, q)
        assert v.status is JmStatus.INCOMPATIBLE
        assert v.parent is None
        # cross-checked against the analytic criterion
        assert busch_criterion(p, q).status is JmStatus.INCOMPATIBLE

    def test_incompatible_verdict_needs_no_kernel_call(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("Dykstra ran on a pair the criterion rules out")

        monkeypatch.setattr(_kernels, "dykstra_feasibility", kernel)
        p = noisy_pauli_povm(Z_AXIS, 0.9)
        q = noisy_pauli_povm(X_AXIS, 0.9)
        v = parent_povm_search(p, q)
        assert v.status is JmStatus.INCOMPATIBLE
        assert v.method is JmMethod.ANALYTIC
        assert v.margin == coexistence_criterion(p, q).margin < -1e-9

    def test_violation_within_tol_is_not_incompatible(self):
        # a hair above the z/x threshold the criterion is violated by about
        # 2e-12, well inside tol: the search runs and may only certify or
        # stay Undecided
        lam = INV_SQRT2 * (1.0 + 1e-12)
        p = noisy_pauli_povm(Z_AXIS, lam)
        q = noisy_pauli_povm(X_AXIS, lam)
        assert -1e-9 < coexistence_criterion(p, q).margin < 0.0
        assert parent_povm_search(p, q).status is not JmStatus.INCOMPATIBLE

    def test_biased_pair_compatible(self):
        # commuting biased effects: diagonal matrices always admit a parent
        p = BinaryPovm.from_effect(np.diag([0.9, 0.3]))
        q = BinaryPovm.from_effect(np.diag([0.6, 0.1]))
        v = parent_povm_search(p, q)
        assert v.status is JmStatus.COMPATIBLE
        verify_parent(v.parent, p, q, 1e-8)

    @settings(max_examples=200, deadline=None)
    @given(_biased_povm(), _biased_povm())
    def test_biased_compatible_certificates_verify(self, p, q):
        v = parent_povm_search(p, q)
        if v.status is JmStatus.COMPATIBLE:
            verify_parent(v.parent, p, q, DEFAULT_TOL + 1e-12)

    @pytest.mark.parametrize("lam", [0.72, 0.75, 0.8, 0.9])
    def test_kernel_certifies_no_pair_above_threshold(self, lam):
        # z/x pairs above λ* = 1/√2 that a loose tolerance once certified:
        # the raw kernel, at the fixed tolerance, finds no parent
        p, q = noisy_pauli_povm(Z_AXIS, lam), noisy_pauli_povm(X_AXIS, lam)
        assert kernel_verdict(p, q) == (JmStatus.INCOMPATIBLE, None)

    def test_thin_set_pair_has_no_false_certificate(self):
        # compatible, but its parent set is thin: a certificate, if one is
        # found, holds at the fixed tolerance (one at 1e-4 had effects
        # negative by 1e-4)
        p = BinaryPovm.from_effect(0.6 * np.array([[0.5, 0.5], [0.5, 0.5]]))
        q = noisy_pauli_povm(Z_AXIS, 0.5)
        v = parent_povm_search(p, q)
        assert v.status is not JmStatus.INCOMPATIBLE
        if v.status is JmStatus.COMPATIBLE:
            verify_parent(v.parent, p, q, DEFAULT_TOL + 1e-12)

    def test_takes_no_tolerance(self):
        assert list(inspect.signature(parent_povm_search).parameters) == ["p", "q"]
        assert list(inspect.signature(_search_parent).parameters) == ["p", "q"]

    def test_agreement_with_analytic(self, rng):
        # margin-filtered random scan; the full 200-pair run lives in the
        # acceptance suite
        tested = 0
        while tested < 40:
            p = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            q = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            analytic = busch_criterion(p, q)
            if abs(analytic.margin) < 5e-3:
                continue
            tested += 1
            assert parent_povm_search(p, q).status is analytic.status

    def test_symmetry(self, rng):
        for _ in range(10):
            p = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            q = noisy_pauli_povm(random_axis(rng), float(rng.uniform(0, 1)))
            assert parent_povm_search(p, q).status is parent_povm_search(q, p).status


@pytest.mark.parametrize("seed", [8, 9, 502])
def test_verify_jm_searches_each_pair_once(monkeypatch, seed):
    # the kernel's verdict and the re-verified certificate read one search:
    # 200 unbiased and 200 biased pairs make 400 kernel calls
    kernel, calls = _kernels.dykstra_feasibility, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "dykstra_feasibility", counting)
    verify.jm(seed)
    assert len(calls) == 400


class TestSharpnessThreshold:
    def test_orthogonal_axes(self):
        assert sharpness_threshold(Z_AXIS, X_AXIS) == pytest.approx(INV_SQRT2, abs=1e-9)

    def test_parallel_axes(self):
        assert sharpness_threshold(Z_AXIS, Z_AXIS) == 1.0

    def test_sixty_degrees(self):
        axis = np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])
        # 2/(sqrt(3)+1) = sqrt(3)-1
        assert sharpness_threshold(Z_AXIS, axis) == pytest.approx(0.7320508075688772, abs=1e-9)

    def test_matches_closed_form(self, rng):
        # the analytic criterion's margin vanishes exactly at the threshold
        for _ in range(25):
            n1, n2 = random_axis(rng), random_axis(rng)
            lam = sharpness_threshold(n1, n2)
            margin = busch_criterion(noisy_pauli_povm(n1, lam), noisy_pauli_povm(n2, lam)).margin
            assert margin == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(_axis(), _axis())
    def test_feasibility_oracle_brackets_threshold(self, n1, n2):
        # the raw Dykstra kernel shares no code with the formula
        lam = sharpness_threshold(n1, n2)
        below = kernel_verdict(noisy_pauli_povm(n1, 0.99 * lam), noisy_pauli_povm(n2, 0.99 * lam))[0]
        assert below is JmStatus.COMPATIBLE
        if 1.01 * lam <= 1.0:
            above = kernel_verdict(noisy_pauli_povm(n1, 1.01 * lam), noisy_pauli_povm(n2, 1.01 * lam))[0]
            assert above is JmStatus.INCOMPATIBLE


    @settings(max_examples=200, deadline=None)
    @given(_axis(), _axis(), st.floats(-15.0, -2.0))
    def test_search_certifies_just_below_threshold(self, n1, n2, log_gap):
        # unbiased pairs up to 1e-15 below λ* keep a certificate at the
        # fixed tolerance
        lam = sharpness_threshold(n1, n2) * (1.0 - 10.0**log_gap)
        p, q = noisy_pauli_povm(n1, lam), noisy_pauli_povm(n2, lam)
        v = parent_povm_search(p, q)
        assert v.status is JmStatus.COMPATIBLE
        verify_parent(v.parent, p, q, DEFAULT_TOL + 1e-12)
