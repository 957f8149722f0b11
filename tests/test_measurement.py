"""Observables, noisy-Pauli POVMs and the incompatibility degree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab.errors import NonUnitAxisError, OutOfRangeError
from chshlab.linalg import I2, SX, SY, SZ, eig_hermitian, is_psd, operator_norm
from chshlab.measurement import (
    BinaryPovm,
    ChshSetting,
    X_AXIS,
    Z_AXIS,
    bloch_observable,
    from_pauli_coords,
    incompatibility_degree,
    noisy_family_povms,
    noisy_pauli_povm,
    pauli_coords,
)
from chshlab.entanglement import CanonicalAngles, canonical_setting

from conftest import random_axes


class TestBlochObservable:
    def test_z(self):
        assert np.allclose(bloch_observable(Z_AXIS), SZ)

    def test_x(self):
        assert np.allclose(bloch_observable(X_AXIS), SX)

    def test_diagonal(self):
        axis = (X_AXIS + Z_AXIS) / np.sqrt(2)
        assert np.allclose(bloch_observable(axis), (SX + SZ) / np.sqrt(2))

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitAxisError):
            bloch_observable([0.0, 0.0, 1.1])

    def test_traceless_involutive(self, rng):
        for axis in random_axes(rng, 20):
            obs = bloch_observable(axis)
            assert abs(np.trace(obs)) <= 1e-12
            assert np.max(np.abs(obs @ obs - I2)) <= 1e-12


class TestNoisyPauliPovm:
    def test_sharp_limit_is_projectors(self):
        povm = noisy_pauli_povm(Z_AXIS, 1.0)
        assert np.allclose(povm.effect_plus, np.diag([1.0, 0.0]))
        assert np.allclose(povm.effect_minus, np.diag([0.0, 1.0]))

    def test_trivial_limit(self):
        povm = noisy_pauli_povm(Z_AXIS, 0.0)
        assert np.allclose(povm.effect_plus, I2 / 2)
        assert np.allclose(povm.effect_minus, I2 / 2)

    def test_family_member(self):
        povm = noisy_pauli_povm(X_AXIS, 0.8)
        assert np.allclose(povm.effect_plus, (I2 + 0.8 * SX) / 2)
        assert np.allclose(povm.effect_minus, (I2 - 0.8 * SX) / 2)
        assert povm.sharpness == 0.8
        assert povm.bias == pytest.approx(0.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            noisy_pauli_povm(Z_AXIS, 1.2)
        with pytest.raises(OutOfRangeError):
            noisy_pauli_povm(Z_AXIS, -0.1)

    def test_completeness_and_positivity(self, rng):
        for axis in random_axes(rng, 10):
            lam = float(rng.uniform(0, 1))
            povm = noisy_pauli_povm(axis, lam)
            assert np.max(np.abs(povm.effect_plus + povm.effect_minus - I2)) <= 1e-12
            assert is_psd(povm.effect_plus)
            assert is_psd(povm.effect_minus)

    def test_observable_is_scaled_axis(self, rng):
        for axis in random_axes(rng, 10):
            lam = float(rng.uniform(0, 1))
            povm = noisy_pauli_povm(axis, lam)
            assert np.max(np.abs(povm.observable() - lam * bloch_observable(axis))) <= 1e-12


def test_pauli_coords_roundtrip(rng):
    for _ in range(10):
        c = rng.normal(size=4)
        assert np.allclose(pauli_coords(from_pauli_coords(c)), c, atol=1e-12)


def pauli_coords_by_definition(m) -> np.ndarray:
    """(tr M, tr Mσx, tr Mσy, tr Mσz), each a trace of a complex matrix product."""
    a = np.asarray(m, dtype=complex)
    return np.array([np.trace(a).real] + [np.trace(a @ s).real for s in (SX, SY, SZ)])


def same_bits(got, want) -> bool:
    """Bit-for-bit equality, except for the sign of a zero.  The products with
    the zero entries of σ add signed zeros to each trace, so a zero coordinate
    may read 0.0 on one side and -0.0 on the other; adding 0.0 turns -0.0
    into 0.0 and leaves every other float as it is."""
    return (got + 0.0).tobytes() == (want + 0.0).tobytes()


_ENTRY = st.floats(-1e300, 1e300)  # a sum of two stays finite


@st.composite
def _unit_axis(draw):
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-3 else Z_AXIS


@st.composite
def _effect(draw):
    """(c0·I + r·n·σ)/2 with eigenvalues (c0 ± r)/2 inside [0, 1]."""
    c0 = draw(st.floats(0.0, 2.0))
    r = draw(st.floats(0.0, 1.0)) * min(c0, 2.0 - c0)
    return from_pauli_coords([c0, *(r * draw(_unit_axis()))])


class TestPauliCoords:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRY, min_size=8, max_size=8))
    def test_entries_equal_traces(self, parts):
        m = np.reshape(parts[:4], (2, 2)) + 1j * np.reshape(parts[4:], (2, 2))
        assert same_bits(pauli_coords(m), pauli_coords_by_definition(m))

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            _effect().map(BinaryPovm.from_effect),
            st.builds(noisy_pauli_povm, _unit_axis(), st.floats(0.0, 1.0)),
        )
    )
    def test_povm_carries_coords(self, povm):
        assert same_bits(povm.coords, pauli_coords_by_definition(povm.effect_plus))
        assert povm.bias == povm.coords[0] - 1


class TestIncompatibilityDegree:
    def test_commuting_pair_is_zero(self):
        setting = ChshSetting(a0=SZ, a1=SZ, b0=SX, b1=SZ)
        assert incompatibility_degree(setting) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_canonical(self):
        setting = canonical_setting(CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2))
        assert incompatibility_degree(setting) == pytest.approx(1.0, abs=1e-9)

    def test_canonical_example(self):
        setting = canonical_setting(CanonicalAngles(theta=np.pi / 3, phi=np.pi / 4))
        # sin(pi/3) sin(pi/4) = sqrt(6)/4, cross-checked against the matrix norm
        assert incompatibility_degree(setting) == pytest.approx(0.6123724356957945, abs=1e-9)

    def test_matches_sine_product_on_canonical_grid(self):
        for theta in np.linspace(0.0, np.pi / 2, 7):
            for phi in np.linspace(0.0, np.pi / 2, 7):
                setting = canonical_setting(CanonicalAngles(theta=float(theta), phi=float(phi)))
                assert incompatibility_degree(setting) == pytest.approx(
                    np.sin(theta) * np.sin(phi), abs=1e-9
                )

    def test_swap_invariance(self, rng):
        a0, a1, b0, b1 = (bloch_observable(ax) for ax in random_axes(rng, 4))
        base = incompatibility_degree(ChshSetting(a0, a1, b0, b1))
        swapped_a = incompatibility_degree(ChshSetting(a1, a0, b0, b1))
        swapped_b = incompatibility_degree(ChshSetting(a0, a1, b1, b0))
        swapped_both = incompatibility_degree(ChshSetting(a1, a0, b1, b0))
        assert base == pytest.approx(swapped_a, abs=1e-12)
        assert base == pytest.approx(swapped_b, abs=1e-12)
        assert base == pytest.approx(swapped_both, abs=1e-12)

    def test_equals_top_eigenvalue_for_projective(self, rng):
        # the commutator tensor has a symmetric spectrum, so its norm is
        # the top eigenvalue; numpy is the oracle
        from chshlab.chsh import commutator_tensor

        for _ in range(20):
            a0, a1, b0, b1 = (bloch_observable(ax) for ax in random_axes(rng, 4))
            setting = ChshSetting(a0, a1, b0, b1)
            j = commutator_tensor(setting)
            mu = float(np.max(np.linalg.eigvalsh(j)))
            assert incompatibility_degree(setting) == pytest.approx(mu, abs=1e-9)

    def test_factorized_oracle(self, rng):
        # norm of a Kronecker product factorizes; independent route to delta
        for _ in range(10):
            a0, a1, b0, b1 = (bloch_observable(ax) for ax in random_axes(rng, 4))
            setting = ChshSetting(a0, a1, b0, b1)
            factorized = 0.25 * operator_norm(a0 @ a1 - a1 @ a0) * operator_norm(b0 @ b1 - b1 @ b0)
            assert incompatibility_degree(setting) == pytest.approx(factorized, abs=1e-9)


def test_noisy_family_observables():
    ma0, ma1, mb0, mb1 = noisy_family_povms(0.6)
    assert np.allclose(ma0.observable(), 0.6 * SZ)
    assert np.allclose(ma1.observable(), 0.6 * SX)
    assert np.allclose(mb0.observable(), 0.6 * (SZ + SX) / np.sqrt(2))
    assert np.allclose(mb1.observable(), 0.6 * (SZ - SX) / np.sqrt(2))


def test_setting_from_povms():
    povms = noisy_family_povms(1.0)
    setting = ChshSetting.from_povms(*povms)
    spec = eig_hermitian(setting.a0)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
