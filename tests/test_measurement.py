"""Observables, noisy-Pauli POVMs and the incompatibility degree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chshlab.measurement
from chshlab.chsh import chsh_operator, chsh_value, landau_bound, max_over_states, sample_estimate
from chshlab.compat import parent_povm_search, sharpness_threshold
from chshlab.errors import NonUnitAxisError, NotHermitianError, OutOfRangeError
from chshlab.linalg import I2, SX, SY, SZ, eig_hermitian, hermitize, is_psd, operator_norm
from chshlab.measurement import (
    BinaryPovm,
    ChshSetting,
    X_AXIS,
    Z_AXIS,
    bloch_observable,
    commutator_tensor,
    from_pauli_coords,
    incompatibility_degree,
    noisy_family_povms,
    noisy_pauli_povm,
    pauli_coords,
    unit_axis,
)
from chshlab.entanglement import CanonicalAngles, canonical_setting, schmidt_state

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

    def test_one_psd_check(self, monkeypatch):
        # tr E+ = 1, so E- = I - E+ has the same spectrum and needs no eigensolve
        tols = []

        def counting(m, tol=1e-12):
            tols.append(tol)
            return is_psd(m, tol)

        monkeypatch.setattr(chshlab.measurement, "is_psd", counting)
        noisy_pauli_povm((X_AXIS + Z_AXIS) / np.sqrt(2), 0.6)
        assert tols == [1e-12]

    @pytest.mark.parametrize("direction", [Z_AXIS, np.array([0.48, -0.6, 0.64])], ids=["z", "tilted"])
    @pytest.mark.parametrize("delta, refused", [(1e-11, True), (3e-12, True), (1e-12, False), (1e-13, False)])
    def test_psd_boundary_at_full_sharpness(self, direction, delta, refused):
        # |n| = 1 + δ passes unit_axis; E+ has eigenvalue (1 - |n|)/2 ≈ -δ/2
        axis = (1.0 + delta) * direction
        # from_effect checks E+ and E- separately; the one check must agree
        builds = (
            lambda: noisy_pauli_povm(axis, 1.0),
            lambda: BinaryPovm.from_effect(from_pauli_coords([1.0, *axis])),
        )
        for build in builds:
            if refused:
                with pytest.raises(OutOfRangeError, match=r"^POVM effect has an eigenvalue below -1e-12$"):
                    build()
            else:
                assert is_psd(build().effect_minus, 1e-12)

    def test_biased_effect_checks_both(self):
        # E+ ≥ 0, but tr E+ ≠ 1 and I - E+ has eigenvalue -0.1
        with pytest.raises(OutOfRangeError, match="eigenvalue below"):
            BinaryPovm.from_effect(np.diag([1.1, 0.5]))

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


def _pauli_sum(c0, c1, c2, c3):
    return c0 * I2 + c1 * SX + c2 * SY + c3 * SZ


def _bloch_sum(n):
    return n[0] * SX + n[1] * SY + n[2] * SZ


@st.composite
def _signed_zero_axis(draw):
    """A unit axis with at least one component 0.0 or -0.0."""
    v = draw(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0]), min_size=3, max_size=3))
    v[draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, -0.0]))
    norm = float(np.linalg.norm(v))
    return np.array(v) / norm if norm > 1e-3 else np.array([-0.0, -1.0, 0.0])


_ANY_AXIS = _unit_axis() | _signed_zero_axis()


class TestEntryByEntry:
    """The matrices written entry by entry equal the Pauli sums they replace."""

    @settings(max_examples=300, deadline=None)
    @given(_ANY_AXIS)
    def test_bloch_observable_signed_zeros_included(self, axis):
        assert bloch_observable(axis).tobytes() == _bloch_sum(axis).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_ANY_AXIS, st.floats(0.0, 1.0))
    def test_noisy_effects(self, axis, lam):
        # the sign of a zero may differ only where λn_k/2 underflows
        povm = noisy_pauli_povm(axis, lam)
        e_plus = hermitize((I2 + lam * _bloch_sum(axis)) / 2)
        assert same_bits(povm.effect_plus, e_plus)
        assert same_bits(povm.effect_minus, I2 - e_plus)
        if all(x == 0.0 or abs(lam * x) >= 1e-300 or lam == 0.0 for x in axis):
            assert povm.effect_plus.tobytes() == e_plus.tobytes()
            assert povm.coords.tobytes() == pauli_coords(e_plus).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 2.0, exclude_min=True), *[st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])] * 3)
    def test_from_pauli_coords(self, c0, c1, c2, c3):
        assert from_pauli_coords([c0, c1, c2, c3]).tobytes() == (_pauli_sum(c0, c1, c2, c3) / 2).tobytes()
        assert np.array_equal(from_pauli_coords([-c0, c1, c2, c3]), _pauli_sum(-c0, c1, c2, c3) / 2)


_NON_FINITE = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf])


@st.composite
def _non_finite_axis(draw):
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    for i in draw(st.sets(st.integers(0, 2), min_size=1)):
        v[i] = draw(_NON_FINITE)
    return v


@settings(max_examples=100, deadline=None)
@given(_non_finite_axis(), st.integers(0, 3))
def test_non_finite_axis_is_not_unit(axis, slot):
    """A NaN norm passed the old `abs(norm - 1) > tol` test, and
    sharpness_threshold read 1.0 ("compatible at every λ") off a NaN axis."""
    with pytest.raises(NonUnitAxisError):
        unit_axis(axis)
    with pytest.raises(NonUnitAxisError):
        noisy_pauli_povm(axis, 0.5)
    with pytest.raises(NonUnitAxisError):
        sharpness_threshold(axis, Z_AXIS)
    with pytest.raises(NonUnitAxisError):
        sharpness_threshold(Z_AXIS, axis)
    axes = [Z_AXIS, X_AXIS, Z_AXIS, X_AXIS]
    axes[slot] = axis
    with pytest.raises(NonUnitAxisError):
        ChshSetting.from_axes(*axes)


def test_results_holding_arrays_compare_by_identity():
    """Field-wise == on ndarray fields raised 'truth value ... ambiguous',
    and hash raised too."""
    p, q = noisy_pauli_povm(Z_AXIS, 0.5), noisy_pauli_povm(X_AXIS, 0.5)
    verdict = parent_povm_search(p, q)
    assert verdict.parent is not None
    setting = ChshSetting.from_povms(*noisy_family_povms(1.0))
    state = schmidt_state(0.3)
    results = [
        p,
        setting,
        verdict.parent,
        verdict,
        eig_hermitian(SZ),
        state,
        sample_estimate(noisy_family_povms(1.0), state.density_matrix(), 10, 0),
        max_over_states(setting),
    ]
    twins = [
        noisy_pauli_povm(Z_AXIS, 0.5),
        ChshSetting.from_povms(*noisy_family_povms(1.0)),
        parent_povm_search(p, q).parent,
        parent_povm_search(p, q),
        eig_hermitian(SZ),
        schmidt_state(0.3),
        sample_estimate(noisy_family_povms(1.0), state.density_matrix(), 10, 0),
        max_over_states(setting),
    ]
    for result, twin in zip(results, twins):
        assert result == result
        assert result != twin  # distinct objects holding equal arrays
        assert isinstance(hash(result), int)


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


def _with(slot, m):
    obs = [SZ, SX, SZ, SX]
    obs[slot] = m
    return obs


class TestChshSettingRefusals:
    """Observables that are not finite 2x2 matrices are refused on
    construction, before any spectral call can crash or warn."""

    @pytest.mark.parametrize(
        "observables, message",
        [
            ([np.eye(3)] * 4, "observable a0 must be 2x2, got shape (3, 3)"),
            (_with(3, np.eye(3)), "observable b1 must be 2x2, got shape (3, 3)"),
            (_with(2, [1.0, -1.0]), "observable b0 must be 2x2, got shape (2,)"),
            (_with(1, np.full((2, 2), np.nan)), "observable a1 has a non-finite entry"),
            (_with(2, np.diag([np.inf, 1.0])), "observable b0 has a non-finite entry"),
            (_with(3, np.array([[1.0, complex(0.0, -np.inf)], [0.0, 1.0]])), "observable b1 has a non-finite entry"),
        ],
        ids=["all-3x3", "one-3x3", "vector", "nan", "inf", "-inf-imag"],
    )
    def test_refusal(self, observables, message):
        with pytest.raises(NotHermitianError) as exc:
            ChshSetting(*observables)
        assert str(exc.value) == message


class TestChshSettingDerivesOnce:
    def test_same_read_only_arrays(self):
        setting = canonical_setting(CanonicalAngles(theta=1.1, phi=0.7))
        for derive in (chsh_operator, commutator_tensor):
            m = derive(setting)
            assert derive(setting) is m
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
        with pytest.raises(ValueError):
            setting.a0[0, 0] = 0.0

    def test_source_arrays_are_copied(self, rng):
        sources = [bloch_observable(ax) for ax in random_axes(rng, 4)]
        setting = ChshSetting(*sources)
        fresh = ChshSetting(*(m.copy() for m in sources))
        rho = schmidt_state(0.3).density_matrix()
        for m in sources:
            m[...] = SZ
        assert landau_bound(setting).mu == landau_bound(fresh).mu
        assert max_over_states(setting).value == max_over_states(fresh).value
        assert incompatibility_degree(setting) == incompatibility_degree(fresh)
        assert chsh_value(setting, rho) == chsh_value(fresh, rho)
