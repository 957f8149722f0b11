"""Observables, noisy-Pauli POVMs and the incompatibility degree."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chshlab.measurement
from chshlab.chsh import chsh_operator, chsh_value, landau_bound, max_over_states, sample_estimate
from chshlab.compat import parent_povm_search, sharpness_threshold
from chshlab.errors import NonUnitAxisError, NotHermitianError, OutOfRangeError
from chshlab.linalg import HERMITICITY_TOL, I2, SX, SY, SZ, eig_hermitian, is_psd
from chshlab.measurement import (
    OBSERVABLE_NORM_TOL,
    PSD_TOL,
    UNIT_AXIS_TOL,
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
from chshlab.entanglement import (
    CanonicalAngles,
    UnitaryParams,
    canonical_setting,
    incompatibility_monotonicity,
    local_unitary,
    max_chsh_closed_form,
    max_chsh_over_unitaries,
    nonlocality_region,
    rotated_chsh,
    schmidt_state,
)

from conftest import any_2x2, random_axes


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
        checked = []

        def counting(m):
            checked.append(m)
            return is_psd(m)

        monkeypatch.setattr(chshlab.measurement, "is_psd", counting)
        povm = noisy_pauli_povm((X_AXIS + Z_AXIS) / np.sqrt(2), 0.6)
        assert len(checked) == 1 and checked[0] is povm.effect_plus

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
                assert is_psd(build().effect_minus)

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
def _axis_pair(draw):
    """Two unit axes; in about half the draws the second lies within 1e-6
    rad of the first, where |n × n'| loses its leading digits."""
    first, second = draw(_unit_axis()), draw(_unit_axis())
    if draw(st.booleans()):
        v = first + draw(st.floats(-1e-6, 1e-6)) * second
        second = v / np.linalg.norm(v)
    return first, second


def _exact_bloch(m):
    """The Bloch vector of a 2x2 matrix's Hermitian part, exactly, from its float entries."""
    (p, q), (r, s) = m.tolist()
    f = Fraction
    return ((f(q.real) + f(r.real)) / 2, (f(r.imag) - f(q.imag)) / 2, (f(p.real) - f(s.real)) / 2)


def _exact_cross_squared(x, y):
    return (x[1] * y[2] - x[2] * y[1]) ** 2 + (x[2] * y[0] - x[0] * y[2]) ** 2 + (x[0] * y[1] - x[1] * y[0]) ** 2


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

    @pytest.mark.parametrize("m", [np.eye(3), np.zeros((1, 2)), np.zeros((4, 1))], ids=["3x3", "1x2", "4x1"])
    def test_not_2x2_refused(self, m):
        # np.eye(3) leaked "ValueError: too many values to unpack"
        with pytest.raises(NotHermitianError) as exc:
            pauli_coords(m)
        assert str(exc.value) == f"expected a 2x2 matrix, got shape {m.shape}"

    @pytest.mark.parametrize(
        "c",
        [np.eye(2), [[1.0, 0.0, 0.0, 1.0]], [1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0]],
        ids=["2x2", "row", "three", "nan", "inf"],
    )
    def test_coords_that_are_not_four_finite_reals_refused(self, c):
        # np.eye(2) was read as the coords (1, 0, 0, 1) of the projector |0><0|
        with pytest.raises(NotHermitianError) as exc:
            from_pauli_coords(c)
        assert str(exc.value) == f"Pauli coordinates {c!r} are not four finite real numbers"


@st.composite
def _inner_effect(draw):
    """An effect with eigenvalues in [0.025, 0.975], which noise of 1e-10 keeps inside [0, 1]."""
    c0 = draw(st.floats(0.1, 1.9))
    r = draw(st.floats(0.0, 1.0)) * (min(c0, 2.0 - c0) - 0.05)
    return from_pauli_coords([c0, *(r * draw(_unit_axis()))])


class TestFromEffect:
    """from_effect reads its effect with eig_hermitian's checks, at HERMITICITY_TOL."""

    @pytest.mark.parametrize(
        "m",
        [
            [[0.5, 1.0], [0.0, 0.5]],
            [[0.5, 0.3j], [0.3j, 0.5]],
            np.array([[0.5, 2e-10], [0.0, 0.5]]),
            np.diag([0.5 + 1e-10j, 0.5]),
            np.zeros((3, 3)) + np.triu(np.ones((3, 3)), 1),
        ],
        ids=["triangular", "anti-hermitian-part", "just-past-tol", "complex-diagonal", "3x3"],
    )
    def test_asymmetric_effect_refused_as_eig_hermitian_refuses_it(self, m):
        # the effect used to be read at tol = inf: the first two became the
        # effects with coords (1, 1, 0, 0) and I/2
        with pytest.raises(NotHermitianError) as want:
            eig_hermitian(m)
        with pytest.raises(NotHermitianError) as got:
            BinaryPovm.from_effect(m)
        assert str(got.value) == str(want.value)
        assert got.value.defect == want.value.defect > HERMITICITY_TOL

    @settings(max_examples=300, deadline=None)
    @given(_inner_effect(), st.lists(st.floats(-3e-11, 3e-11), min_size=8, max_size=8))
    def test_effect_within_tol_keeps_its_hermitian_part(self, effect, noise):
        # |q - r̄| and 2|Im p| stay below 2√2 · 3e-11 < HERMITICITY_TOL, so
        # the effect is accepted, and it comes out as the Hermitian part
        # that was kept when effects were read at tol = inf
        m = effect + np.reshape(noise[:4], (2, 2)) + 1j * np.reshape(noise[4:], (2, 2))
        povm = BinaryPovm.from_effect(m)
        e_plus = (m + m.conj().T) / 2
        assert povm.effect_plus.tobytes() == e_plus.tobytes()
        assert povm.effect_minus.tobytes() == (I2 - e_plus).tobytes()
        assert povm.coords.tobytes() == pauli_coords(e_plus).tobytes()


def _normal(floats):
    """floats drawn zero or at least 1e-300 in modulus, whose halves are not subnormal."""
    return floats.filter(lambda x: x == 0.0 or abs(x) >= 1e-300)


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
        m = (I2 + lam * _bloch_sum(axis)) / 2
        e_plus = (m + m.conj().T) / 2  # the Hermitian part, as from_effect keeps it
        assert same_bits(povm.effect_plus, e_plus)
        assert same_bits(povm.effect_minus, I2 - e_plus)
        # coords come from the entries noisy_pauli_povm writes, not from
        # reading E+ back, and equal that reading, signed zeros included
        assert povm.coords.dtype == np.float64
        assert povm.coords.tobytes() == pauli_coords(povm.effect_plus).tobytes()
        if all(x == 0.0 or abs(lam * x) >= 1e-300 or lam == 0.0 for x in axis):
            assert povm.effect_plus.tobytes() == e_plus.tobytes()
            assert povm.coords.tobytes() == pauli_coords(e_plus).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        _normal(st.floats(0.0, 2.0, exclude_min=True)),
        *[_normal(st.floats(-2.0, 2.0)) | st.sampled_from([0.0, -0.0])] * 3,
    )
    def test_from_pauli_coords(self, c0, c1, c2, c3):
        # each coordinate is halved before the sums: exact, and so equal
        # to the halved sum, wherever no half is subnormal.  _normal leaves
        # out exactly the inputs whose bits changed on purpose: a subnormal
        # half rounds, so [5e-324, 0, 0, 5e-324] now writes 0 where
        # (c0 + c3)/2 is 5e-324
        assert from_pauli_coords([c0, c1, c2, c3]).tobytes() == (_pauli_sum(c0, c1, c2, c3) / 2).tobytes()
        assert np.array_equal(from_pauli_coords([-c0, c1, c2, c3]), _pauli_sum(-c0, c1, c2, c3) / 2)

    def test_finite_coordinates_near_float_max(self):
        # (c0 + c3)/2 overflowed to inf before the halves were summed
        assert from_pauli_coords([1e308, 0.0, 0.0, 1e308]).tolist() == [[1e308, 0.0], [0.0, 0.0]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_finite_coordinates_give_finite_entries(self, c):
        # at any scale, each entry is a sum or difference of two halves,
        # which stays within float max
        m = from_pauli_coords(c)
        assert np.isfinite(m).all()
        assert np.array_equal(m, _pauli_sum(*(x / 2 for x in c)))


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


@pytest.mark.parametrize(
    "axis, message",
    [
        ([1.0, 0.0], "axis [1.0, 0.0] is not three real numbers"),
        (np.zeros(4), "axis array([0., 0., 0., 0.]) is not three real numbers"),
        ("abc", "axis 'abc' is not three real numbers"),
        ([[1.0, 0.0], [0.0]], "axis [[1.0, 0.0], [0.0]] is not three real numbers"),
        # one shape rule, (3,), whatever the container: a (1, 3) ndarray
        # used to pass where the same numbers as nested lists did not
        (np.array([[0.0, 0.0, 1.0]]), "axis array([[0., 0., 1.]]) is not three real numbers"),
        ([[0.0, 0.0, 1.0]], "axis [[0.0, 0.0, 1.0]] is not three real numbers"),
        (np.array([[0.0], [0.0], [1.0]]), f"axis {np.array([[0.0], [0.0], [1.0]])!r} is not three real numbers"),
    ],
    ids=["2-vector", "4-vector", "string", "ragged", "row-array", "row-list", "column-array"],
)
def test_axis_that_is_not_three_reals(axis, message):
    """numpy's reshape and parse errors used to escape as bare ValueErrors."""
    calls = [
        lambda: unit_axis(axis),
        lambda: bloch_observable(axis),
        lambda: noisy_pauli_povm(axis, 0.5),
        lambda: ChshSetting.from_axes(Z_AXIS, axis, Z_AXIS, X_AXIS),
        lambda: sharpness_threshold(axis, Z_AXIS),
    ]
    for call in calls:
        with pytest.raises(NonUnitAxisError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "axis",
    [
        np.array([0.0, 0.0, 1.0], dtype=complex),
        [np.complex128(1.0), 0.0, 0.0],
        [0.0, 1j, 0.0],
        [np.complex64(1.0), None, 0.0],
    ],
    ids=["complex-array", "complex128-list", "python-complex-list", "object-array"],
)
def test_complex_axis_is_refused(axis):
    """The cast to float dropped even zero imaginary parts, with a
    ComplexWarning instead of a refusal."""
    calls = [
        lambda: unit_axis(axis),
        lambda: noisy_pauli_povm(axis, 0.5),
        lambda: ChshSetting.from_axes(Z_AXIS, axis, Z_AXIS, X_AXIS),
        lambda: sharpness_threshold(Z_AXIS, axis),
    ]
    for call in calls:
        with pytest.raises(NonUnitAxisError) as exc:
            call()
        assert str(exc.value) == f"axis {axis!r} is not three real numbers"


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: noisy_pauli_povm(Z_AXIS, "0.5"), "sharpness λ", "0.5"),
        (lambda: noisy_pauli_povm(Z_AXIS, None), "sharpness λ", None),
        (lambda: noisy_pauli_povm(Z_AXIS, np.array([0.5, 0.6])), "sharpness λ", np.array([0.5, 0.6])),
        (lambda: noisy_pauli_povm(Z_AXIS, True), "sharpness λ", True),
        (lambda: noisy_family_povms("0.5"), "sharpness λ", "0.5"),
        (lambda: schmidt_state("0.3"), "entanglement parameter", "0.3"),
        (lambda: max_chsh_closed_form(0.3, "0.5"), "incompatibility degree", "0.5"),
        (lambda: max_chsh_closed_form(1j, 0.5), "entanglement parameter", 1j),
        (lambda: CanonicalAngles(theta="a", phi=0.1), "theta", "a"),
        (lambda: CanonicalAngles(theta=0.1, phi=None), "phi", None),
        (lambda: nonlocality_region(None, 0.5), "entanglement parameter", None),
        (lambda: incompatibility_monotonicity("0.3"), "entanglement parameter", "0.3"),
        (lambda: max_chsh_over_unitaries("0.3", CanonicalAngles(1.0, 1.0)), "entanglement parameter", "0.3"),
        (lambda: UnitaryParams("a", 0.0, 0.0), "psi", "a"),
        (lambda: UnitaryParams(0.0, None, 0.0), "phi", None),
        (lambda: UnitaryParams(0.0, 0.0, True), "theta", True),
    ],
    ids=[
        "noisy-povm-str", "noisy-povm-none", "noisy-povm-array", "noisy-povm-bool", "noisy-family",
        "schmidt-state", "closed-form-delta", "closed-form-complex-e", "canonical-theta", "canonical-phi",
        "nonlocality-region", "monotonicity", "max-over-unitaries",
        "unitary-psi-str", "unitary-phi-none", "unitary-theta-bool",
    ],
)
def test_non_real_scalar_is_refused(call, name, value):
    """Range checks leaked TypeError ("'<=' not supported") for a string or
    None, and numpy's truth-value ValueError for an array."""
    with pytest.raises(OutOfRangeError) as exc:
        call()
    assert str(exc.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize(
    "params, name, value",
    [
        ((np.nan, 0.0, 0.0), "psi", np.nan),
        ((0.0, np.inf, 0.0), "phi", np.inf),
        ((0.0, 0.0, -np.inf), "theta", -np.inf),
        ((10**400, 0.0, 0.0), "psi", 10**400),
    ],
    ids=["psi-nan", "phi-inf", "theta-minus-inf", "psi-int-past-float-range"],
)
def test_non_finite_angle_is_refused(params, name, value):
    """A NaN angle built a NaN unitary silently, and ±inf raised numpy's
    RuntimeWarning in local_unitary."""
    with pytest.raises(OutOfRangeError) as exc:
        UnitaryParams(*params)
    assert str(exc.value) == f"{name} {value!r} is not a finite angle"


def test_angles_near_float_max_stay_finite():
    # psi + phi overflowed to inf before the halving
    big = UnitaryParams(1e308, 1e308, 1e308)
    u = local_unitary(big)
    assert np.isfinite(u).all()
    assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-15
    assert np.isfinite(rotated_chsh(0.3, CanonicalAngles(1.0, 1.0), big, UnitaryParams(0.0, -1e308, 0.0)))


def test_numpy_and_integer_scalars_pass():
    assert noisy_pauli_povm(Z_AXIS, np.float32(0.5)).sharpness == 0.5
    assert noisy_pauli_povm(Z_AXIS, 1).sharpness == 1
    assert schmidt_state(np.int64(0)).e == 0.0
    assert max_chsh_closed_form(np.float64(0.5), np.uint8(1)) == max_chsh_closed_form(0.5, 1.0)
    assert CanonicalAngles(theta=np.float16(1.0), phi=0).delta == 0.0
    half_sharp = noisy_pauli_povm(Z_AXIS, np.float64(0.5)), noisy_pauli_povm(X_AXIS, np.float32(0.5))
    assert parent_povm_search(*half_sharp).status.value == "Compatible"
    # a float32 angle built a complex64 unitary, whose state vector missed
    # norm 1 by 5e-9 and was refused by rotated_chsh
    narrow = UnitaryParams(np.float32(1.0), np.float16(0.3), np.int64(2))
    twin = UnitaryParams(1.0, float(np.float16(0.3)), 2.0)
    assert np.array_equal(local_unitary(narrow), local_unitary(twin))
    assert local_unitary(narrow).dtype == np.complex128
    angles = CanonicalAngles(1.0, 1.0)
    assert rotated_chsh(0.3, angles, narrow, twin) == rotated_chsh(0.3, angles, twin, twin)


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
            factorized = 0.25 * np.linalg.norm(a0 @ a1 - a1 @ a0, 2) * np.linalg.norm(b0 @ b1 - b1 @ b0, 2)
            assert incompatibility_degree(setting) == pytest.approx(factorized, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[_unit_axis()] * 4),
        st.one_of(st.none(), st.tuples(*[st.floats(0.0, 1.0)] * 4)),
    )
    def test_delta_is_landau_mu(self, axes, lams):
        """Δ = ‖J‖ is J's top eigenvalue and Landau's μ, projective (lams None) or noisy."""
        if lams is None:
            setting = ChshSetting.from_axes(*axes)
        else:
            setting = ChshSetting.from_povms(*(noisy_pauli_povm(ax, lam) for ax, lam in zip(axes, lams)))
        a0, a1, b0, b1 = setting.observables()
        j = commutator_tensor(setting)
        delta = incompatibility_degree(setting)
        assert abs(delta - np.linalg.norm(j, 2)) <= 1e-12
        factorized = 0.25 * np.linalg.norm(a0 @ a1 - a1 @ a0, 2) * np.linalg.norm(b0 @ b1 - b1 @ b0, 2)
        assert abs(delta - factorized) <= 1e-12
        assert not np.signbit(delta)  # never -0.0
        if lams is None:
            mu = landau_bound(setting).mu
            assert mu == delta  # one closed form, bit for bit
            assert abs(mu - np.linalg.eigvalsh(j)[-1]) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(_axis_pair(), _axis_pair(), st.one_of(st.none(), st.tuples(*[st.floats(0.0, 1.0)] * 4)))
    def test_delta_squared_is_exact_cross_product(self, alice, bob, lams):
        """Δ² against |a0 × a1|²·|b0 × b1|² in exact rationals, projective
        (lams None) or noisy.  The bound is absolute: Δ ≤ 1, and a nearly
        commuting pair keeps no relative accuracy through the cancellation."""
        axes = (*alice, *bob)
        if lams is None:
            setting = ChshSetting.from_axes(*axes)
        else:
            setting = ChshSetting.from_povms(*(noisy_pauli_povm(ax, lam) for ax, lam in zip(axes, lams)))
        a0, a1, b0, b1 = (_exact_bloch(m) for m in setting.observables())
        exact = _exact_cross_squared(a0, a1) * _exact_cross_squared(b0, b1)
        assert abs(Fraction(incompatibility_degree(setting)) ** 2 - exact) <= 2e-15

    @pytest.mark.parametrize(
        "setting",
        [
            ChshSetting(SZ, SZ, SX, SZ),
            ChshSetting(SZ, SX, -SX, -SX),
            ChshSetting(np.zeros((2, 2)), SX, SZ, SX),
            ChshSetting.from_povms(*noisy_family_povms(0.0)),
        ],
        ids=["commuting-alice", "commuting-bob", "zero-observable", "trivial-povms"],
    )
    def test_commuting_is_positive_zero(self, setting):
        delta = incompatibility_degree(setting)
        assert delta == 0.0 and not np.signbit(delta)


class TestNoEigensolve:
    """Δ and μ are closed forms: neither reaches a LAPACK solver."""

    def test_no_solver_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cases = [
            canonical_setting(CanonicalAngles(theta=1.1, phi=0.7)),
            ChshSetting.from_axes(Z_AXIS, X_AXIS, (X_AXIS + Z_AXIS) / np.sqrt(2), (Z_AXIS - X_AXIS) / np.sqrt(2)),
        ]
        for setting in cases:
            assert landau_bound(setting).mu == incompatibility_degree(setting)
        assert incompatibility_degree(cases[1]) == pytest.approx(1.0, abs=1e-15)


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
    """Observables that are not finite 2x2 Hermitian matrices with
    -I ≤ O ≤ I are refused on construction, before any spectral call can
    crash, warn or report a value beyond quantum mechanics."""

    @pytest.mark.parametrize(
        "observables, message",
        [
            ([np.eye(3)] * 4, "observable a0 must be 2x2, got shape (3, 3)"),
            (_with(3, np.eye(3)), "observable b1 must be 2x2, got shape (3, 3)"),
            (_with(2, [1.0, -1.0]), "observable b0 must be 2x2, got shape (2,)"),
            (_with(1, np.full((2, 2), np.nan)), "observable a1 has a non-finite entry"),
            (_with(2, np.diag([np.inf, 1.0])), "observable b0 has a non-finite entry"),
            (_with(3, np.array([[1.0, complex(0.0, -np.inf)], [0.0, 1.0]])), "observable b1 has a non-finite entry"),
            # Δ read 0.5 and chsh_value 0.5 for this a0
            (_with(0, np.array([[0.0, 1.0], [0.0, 0.0]])), "observable a0 deviates from Hermitian by 1.000e+00 (tol 1.0e-10)"),
            (_with(1, SX + 1e-9j * SZ), "observable a1 deviates from Hermitian by 2.000e-09 (tol 1.0e-10)"),
            (_with(3, 1j * SZ), "observable b1 deviates from Hermitian by 2.000e+00 (tol 1.0e-10)"),
            # entries past MAX_ENTRY_MODULUS, refused as eig_hermitian refuses them
            (
                _with(1, np.array([[0.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.0]])),
                "observable a1 entry of modulus inf would overflow M + M† (limit 8.988e+307)",
            ),
            (_with(3, np.diag([1.7e308, -1.7e308])), "observable b1 entry of modulus 1.700e+308 would overflow M + M† (limit 8.988e+307)"),
            ([{}, SX, SZ, SX], "observable a0 must be a 2x2 matrix of numbers, got dict"),
            (_with(2, "x"), "observable b0 must be a 2x2 matrix of numbers, got str"),
            (_with(1, [[1.0, 0.0], [0.0]]), "observable a1 must be a 2x2 matrix of numbers, got list"),
            (_with(3, [["a", "b"], ["c", "d"]]), "observable b1 must be a 2x2 matrix of numbers, got list"),
            (_with(0, object()), "observable a0 must be a 2x2 matrix of numbers, got object"),
        ],
        ids=[
            "all-3x3",
            "one-3x3",
            "vector",
            "nan",
            "inf",
            "-inf-imag",
            "nilpotent",
            "imag-diagonal",
            "anti-hermitian",
            "modulus-inf",
            "difference-inf",
            "dict",
            "string",
            "ragged",
            "strings",
            "object",
        ],
    )
    def test_refusal(self, observables, message):
        with pytest.raises(NotHermitianError) as exc:
            ChshSetting(*observables)
        assert str(exc.value) == message

    def test_hermiticity_defect_is_reported(self):
        with pytest.raises(NotHermitianError) as exc:
            ChshSetting(*_with(2, SZ + np.array([[0.0, 3e-10], [0.0, 0.0]])))
        assert exc.value.defect == 3e-10

    def test_within_hermiticity_tol(self):
        # the defect of linalg.eig_hermitian, measured against the same tol
        a1 = SX + np.array([[0.0, 5e-11], [0.0, 0.0]])
        setting = ChshSetting(*_with(1, a1))
        assert setting.a1.tolist() == ((a1 + a1.conj().T) / 2).tolist()  # kept as its Hermitian part
        eig_hermitian(a1, vectors=False)

    def test_defect_at_tol_is_eig_hermitians(self):
        # numpy's complex abs, which eig_hermitian reads, puts this defect
        # one ulp above HERMITICITY_TOL, and math.hypot puts it at the tol
        a0 = SZ + np.array([[0.0, 1.6075562164947793e-11 + 9.86994240159531e-11j], [0.0, 0.0]])
        for read in (lambda m: eig_hermitian(m, vectors=False), lambda m: ChshSetting(m, SX, SZ, SX)):
            with pytest.raises(NotHermitianError) as exc:
                read(a0)
            assert exc.value.defect == 1.0000000000000002e-10

    @settings(max_examples=500, deadline=None)
    @given(any_2x2())
    def test_refuses_as_eig_hermitian(self, m):
        # ChshSetting reads each observable with eig_hermitian's 2x2 reader:
        # the same refusals, defects and messages, but for the subject
        try:
            eig_hermitian(m, vectors=False)
            want = None
        except NotHermitianError as exc:
            want = str(exc).replace("matrix", "observable a0", 1), exc.defect
        try:
            ChshSetting(m, SX, SZ, SX)
            got = None
        except NotHermitianError as exc:
            got = str(exc), exc.defect
        except OutOfRangeError:  # -I ≤ O ≤ I fails; eig_hermitian has no such check
            got = None
        assert got == want

    def test_accepted_setting_has_spectral_values(self):
        # each observable misses Hermiticity by 9e-11, inside the tol; J
        # built from the given observables would miss it by 1.7e-10, but
        # the setting keeps their Hermitian parts, so J is Hermitian
        e = np.array([[0.0, 9e-11], [0.0, 0.0]])
        b0, b1 = (SZ + SX) / np.sqrt(2), (SZ - SX) / np.sqrt(2)
        setting = ChshSetting(SZ + e, SX + 1j * e, b0 + e, b1 - 1j * e)
        j = commutator_tensor(setting)
        assert np.array_equal(j, j.conj().T)
        want = float(np.linalg.eigvalsh(j)[-1])
        mu = landau_bound(setting).mu
        assert incompatibility_degree(setting) == mu
        assert mu == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "observables, message",
        [
            # max_over_states read 4.2426 > 2√2, and Δ read 2.0
            (_with(0, 2 * SZ), "observable a0 has norm 2.000e+00, outside -I ≤ O ≤ I (tol 2e-09)"),
            # max_over_states read 1.4e200
            (_with(0, 1e200 * SZ), "observable a0 has norm 1.000e+200, outside -I ≤ O ≤ I (tol 2e-09)"),
            # every spectral call overflowed with a warning
            ([1e200 * m for m in (SZ, SX, SZ, SX)], "observable a0 has norm 1.000e+200, outside -I ≤ O ≤ I (tol 2e-09)"),
            (_with(3, 0.5 * I2 + 0.6 * SX), "observable b1 has norm 1.100e+00, outside -I ≤ O ≤ I (tol 2e-09)"),
            (_with(2, -1.5 * I2), "observable b0 has norm 1.500e+00, outside -I ≤ O ≤ I (tol 2e-09)"),
            (_with(1, (1 + 3e-9) * SY), "observable a1 has norm 1.000e+00, outside -I ≤ O ≤ I (tol 2e-09)"),
        ],
        ids=["twice-sz", "1e200", "all-1e200", "biased", "minus-identity", "just-above-tol"],
    )
    def test_out_of_range(self, observables, message):
        with pytest.raises(OutOfRangeError) as exc:
            ChshSetting(*observables)
        assert str(exc.value) == message

    def test_norm_tol(self):
        assert OBSERVABLE_NORM_TOL == 2 * UNIT_AXIS_TOL
        for scale in (1 + 1.9e-9, 1 - 1e-3, 1e-300, 0.0):
            for m in (SZ, SY, -I2, 0.5 * I2 + 0.5 * SX):
                ChshSetting(*_with(2, scale * m))

    def test_first_failing_observable_wins(self):
        with pytest.raises(NotHermitianError, match="^observable a1 has a non-finite entry$"):
            ChshSetting(SZ, np.full((2, 2), np.nan), 2 * SZ, 1j * SZ)
        with pytest.raises(OutOfRangeError, match="^observable a0 has norm"):
            ChshSetting(2 * SZ, np.full((2, 2), np.nan), SZ, 1j * SZ)


class TestChshSettingAcceptsEveryConstructor:
    """Every observable bloch_observable, noisy_pauli_povm and from_effect
    can build passes the -I ≤ O ≤ I check, at the edge of each one's own
    tolerance."""

    @staticmethod
    def _edge_scale(direction, build):
        """Bisect for the largest s in [1, 1 + 2·UNIT_AXIS_TOL] that build(s·direction) accepts."""
        lo, hi = 1.0, 1.0 + 2 * UNIT_AXIS_TOL
        build(lo * direction)
        for _ in range(64):
            mid = (lo + hi) / 2
            try:
                build(mid * direction)
                lo = mid
            except (NonUnitAxisError, OutOfRangeError):
                hi = mid
        return lo

    @pytest.mark.parametrize("seed", range(5))
    def test_bloch_observable_at_unit_axis_edge(self, seed):
        rng = np.random.default_rng(seed)
        edge = []
        for v in rng.normal(size=(4, 3)):
            direction = v / np.linalg.norm(v)
            s = self._edge_scale(direction, unit_axis)
            assert s > 1.0 + 0.99 * UNIT_AXIS_TOL
            edge.append(s * direction)
        setting = ChshSetting.from_axes(*edge)
        assert max_over_states(setting).value <= 2 * np.sqrt(2) + 1e-8

    @pytest.mark.parametrize("direction", [Z_AXIS, X_AXIS, np.array([0.48, -0.6, 0.64])], ids=["z", "x", "tilted"])
    def test_sharp_noisy_povm_at_psd_edge(self, direction):
        s = self._edge_scale(direction, lambda axis: noisy_pauli_povm(axis, 1.0))
        assert s > 1.0  # the PSD tolerance lets |n| past 1
        povm = noisy_pauli_povm(s * direction, 1.0)
        ChshSetting.from_povms(povm, povm, povm, povm)

    @pytest.mark.parametrize(
        "effect",
        [
            np.diag([-PSD_TOL, -PSD_TOL]),
            np.diag([-PSD_TOL, 1.0]),
            np.diag([1.0, -PSD_TOL]),
            from_pauli_coords([1.0 - PSD_TOL, 1.0, 0.0, 0.0]),
        ],
        ids=["below-zero", "below-zero-and-one", "one-and-below-zero", "shifted-projector"],
    )
    def test_biased_effect_at_psd_tol(self, effect):
        povm = BinaryPovm.from_effect(effect)
        assert povm.bias != 0.0
        ChshSetting.from_povms(povm, povm, povm, povm)


class TestChshSettingDerivesOnce:
    def test_same_read_only_arrays(self):
        setting = canonical_setting(CanonicalAngles(theta=1.1, phi=0.7))
        with pytest.raises(ValueError):
            setting.a0[0, 0] = 0.0
        # S is built anew on each call: writing into one copy changes no other
        s = chsh_operator(setting)
        want = s.tobytes()
        s[0, 0] = 0.0
        assert chsh_operator(setting).tobytes() == want

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

    @staticmethod
    def _built(kind, rng):
        """(setting, the arrays it was built from) for one constructor route."""
        axes = random_axes(rng, 4)
        if kind == "from_axes":
            return ChshSetting.from_axes(*axes), list(axes)
        if kind == "noisy":
            povms = [noisy_pauli_povm(ax, lam) for ax, lam in zip(axes, rng.uniform(0.0, 1.0, 4))]
        elif kind == "biased":
            povms = [
                BinaryPovm.from_effect(from_pauli_coords([c0, *(r * ax)]))
                for ax, c0, r in zip(axes, rng.uniform(0.2, 1.8, 4), rng.uniform(0.0, 0.2, 4))
            ]
        else:  # raw matrices, each off Hermitian by less than HERMITICITY_TOL = 1e-10
            noise = rng.uniform(-1e-11, 1e-11, (4, 2, 2)) + 1j * rng.uniform(-1e-11, 1e-11, (4, 2, 2))
            sources = [0.9 * bloch_observable(ax) + e for ax, e in zip(axes, noise)]
            return ChshSetting(*sources), sources
        return ChshSetting.from_povms(*povms), [e for p in povms for e in (p.effect_plus, p.effect_minus)]

    @pytest.mark.parametrize("kind", ["from_axes", "noisy", "biased", "raw"])
    def test_coords_are_read_once(self, kind, rng):
        for _ in range(25):
            setting, sources = self._built(kind, rng)
            coords = setting.coords
            assert coords.shape == (4, 4) and coords.dtype == np.float64
            for row, m in zip(coords, setting.observables()):
                assert row.tobytes() == pauli_coords(m).tobytes()
            if kind == "raw":
                for row, m in zip(coords, sources):
                    assert row.tobytes() == pauli_coords(m).tobytes()
            assert not coords.flags.writeable
            with pytest.raises(ValueError):
                coords[0, 0] = 0.0
            before = coords.tobytes()
            for m in sources:
                m[...] = 0.5
            assert setting.coords is coords and coords.tobytes() == before
