"""CHSH operator, spectral bounds, Born tables and seeded sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chshlab.chsh
from chshlab.chsh import (
    born_table,
    check_state,
    chsh_from_table,
    chsh_operator,
    chsh_value,
    commutator_tensor,
    landau_bound,
    max_over_states,
    sample_estimate,
    state_from_vector,
)
from chshlab.entanglement import CanonicalAngles, canonical_axes, canonical_setting, schmidt_state
from chshlab.errors import InvalidStateError, NotInvolutiveError, OutOfRangeError
from chshlab.linalg import MAX_ENTRY_MODULUS, SX, SY, SZ, kron
from chshlab.measurement import ChshSetting, Z_AXIS, incompatibility_degree, noisy_family_povms, noisy_pauli_povm

from conftest import random_axes

TSIRELSON = 2.8284271247461903
OPTIMAL = canonical_setting(CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2))
PHI_PLUS = schmidt_state(0.5).density_matrix()
MIXED = np.eye(4) / 4


def random_projective_setting(rng):
    axes = random_axes(rng, 4)
    return ChshSetting.from_axes(*axes)


class TestChshOperator:
    def test_optimal_spectrum(self):
        s = chsh_operator(OPTIMAL)
        expected = np.linalg.eigvalsh(s)  # brute-force oracle
        assert np.allclose(sorted(expected), [-TSIRELSON, 0.0, 0.0, TSIRELSON], atol=1e-12)

    def test_equal_bob_settings_collapse(self):
        setting = ChshSetting(a0=SZ, a1=SX, b0=SZ, b1=SZ)
        s = chsh_operator(setting)
        assert np.allclose(s, 2 * kron(SZ, SZ))

    def test_all_z(self):
        setting = ChshSetting(a0=SZ, a1=SZ, b0=SZ, b1=SZ)
        assert np.allclose(chsh_operator(setting), 2 * kron(SZ, SZ))

    def test_hermitian(self, rng):
        s = chsh_operator(random_projective_setting(rng))
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12


class TestLandauBound:
    def test_optimal_setting_reaches_tsirelson(self):
        rep = landau_bound(OPTIMAL)
        assert rep.bound == pytest.approx(TSIRELSON, abs=1e-9)
        assert rep.mu == pytest.approx(1.0, abs=1e-9)
        assert rep.violates

    def test_commuting_alice_pair(self):
        setting = ChshSetting(a0=SZ, a1=SZ, b0=SZ, b1=SX)
        rep = landau_bound(setting)
        assert rep.mu == pytest.approx(0.0, abs=1e-12)
        assert rep.bound == pytest.approx(2.0, abs=1e-9)
        assert not rep.violates

    def test_half_mu(self):
        setting = canonical_setting(CanonicalAngles(theta=np.pi / 2, phi=np.pi / 6))
        rep = landau_bound(setting)
        assert rep.mu == pytest.approx(0.5, abs=1e-9)
        assert rep.bound == pytest.approx(2.449489742783178, abs=1e-9)

    def test_rejects_non_involutive(self):
        povms = noisy_family_povms(0.8)
        setting = ChshSetting.from_povms(*povms)
        with pytest.raises(NotInvolutiveError):
            landau_bound(setting)

    def test_squared_identity_and_norm(self, rng):
        for _ in range(50):
            setting = random_projective_setting(rng)
            s = chsh_operator(setting)
            j = commutator_tensor(setting)
            assert np.max(np.abs(s @ s - 4 * np.eye(4) - 4 * j)) <= 1e-9
            rep = landau_bound(setting)
            oracle = float(np.max(np.abs(np.linalg.eigvalsh(s))))
            assert abs(rep.bound - oracle) <= 1e-9
            assert abs(np.trace(j)) <= 1e-10
            # spectrum of the commutator tensor is symmetric: mu does not
            # depend on the commutator orientation
            ev = np.linalg.eigvalsh(j)
            assert abs(ev[-1] + ev[0]) <= 1e-10

    def test_equals_max_over_states(self, rng):
        for _ in range(20):
            setting = random_projective_setting(rng)
            assert landau_bound(setting).bound == pytest.approx(
                max_over_states(setting).value, abs=1e-9
            )


class TestMaxOverStates:
    def test_noisy_family_scaling(self):
        for lam in (1.0, 2.0 ** -0.25, 0.8):
            setting = ChshSetting.from_povms(*noisy_family_povms(lam))
            rep = max_over_states(setting)
            assert rep.value == pytest.approx(TSIRELSON * lam * lam, abs=1e-9)
        boundary = max_over_states(ChshSetting.from_povms(*noisy_family_povms(2.0 ** -0.25)))
        assert boundary.value == pytest.approx(2.0, abs=1e-12)
        assert not boundary.violates

    def test_lambda_08_value(self):
        setting = ChshSetting.from_povms(*noisy_family_povms(0.8))
        assert max_over_states(setting).value == pytest.approx(1.810193359837562, abs=1e-9)

    def test_optimal_state_attains_value(self, rng):
        for _ in range(20):
            setting = random_projective_setting(rng)
            rep = max_over_states(setting)
            assert chsh_value(setting, rep.optimal_state) == pytest.approx(rep.value, abs=1e-9)

    def test_tsirelson_cap_on_povm_settings(self, rng):
        for _ in range(30):
            axes = random_axes(rng, 4)
            lams = rng.uniform(0, 1, size=4)
            povms = [noisy_pauli_povm(ax, float(l)) for ax, l in zip(axes, lams)]
            rep = max_over_states(ChshSetting.from_povms(*povms))
            assert rep.value <= TSIRELSON + 1e-9


class TestChshValue:
    def test_phi_plus_optimal(self):
        assert chsh_value(OPTIMAL, PHI_PLUS) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_maximally_mixed_is_zero(self, rng):
        assert chsh_value(OPTIMAL, MIXED) == pytest.approx(0.0, abs=1e-12)
        assert chsh_value(random_projective_setting(rng), MIXED) == pytest.approx(0.0, abs=1e-12)

    def test_product_state(self):
        rho = state_from_vector([1.0, 0.0, 0.0, 0.0])
        assert chsh_value(OPTIMAL, rho) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_rejects_invalid_states(self):
        with pytest.raises(InvalidStateError):
            chsh_value(OPTIMAL, np.eye(4))  # trace 4
        with pytest.raises(InvalidStateError):
            chsh_value(OPTIMAL, np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(InvalidStateError):
            chsh_value(OPTIMAL, bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, entry):
        bad = np.eye(4, dtype=complex) / 4
        bad[1, 2] = entry  # NaN fails every comparison, so Hermiticity and trace pass
        with pytest.raises(InvalidStateError, match="non-finite"):
            chsh_value(OPTIMAL, bad)


def _state(entries=(), diagonal=(0.25, 0.25, 0.25, 0.25)):
    rho = np.diag(np.array(diagonal, dtype=complex))
    for where, value in entries:
        rho[where] = value
    return rho


class TestCheckStateRefusals:
    """Each refusal with its class and exact text; the first failing check,
    in the order shape, non-finite, overflow, Hermiticity, spectrum
    overflow, trace, lowest eigenvalue, is the one reported."""

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(3) / 3, "expected a 4x4 density matrix, got (3, 3)"),
            (_state([((1, 2), np.nan)]), "density matrix has a non-finite entry"),
            (_state([((1, 2), -np.inf)]), "density matrix has a non-finite entry"),
            (
                _state([((0, 1), 1e308 + 1e308j), ((1, 0), 1e308 - 1e308j)]),
                "density matrix entry of modulus 1.414e+308 would overflow M + M† (limit 8.988e+307)",
            ),
            (_state([((0, 1), 0.3)]), "density matrix is not Hermitian"),
            (np.eye(4), "trace (4+0j) != 1"),
            # each diagonal entry is Hermitian within STATE_TOL, their sum is not real
            (_state(diagonal=(0.25 + 4e-11j,) * 4), "trace (1+1.6e-10j) != 1"),
            (_state(diagonal=(1.5, -0.5, 0.0, 0.0)), "negative eigenvalue -5.000e-01"),
            # the diagonal sums past the float range: refused without a warning
            (_state(diagonal=(8e307, 8e307, 8e307, 8e307)), "trace (inf+0j) != 1"),
            # bounded entries whose top eigenvalue is past float max
            (np.full((4, 4), 0.99 * MAX_ENTRY_MODULUS), "density matrix spectrum overflows the float range"),
        ],
        ids=[
            "shape", "nan", "inf", "overflow", "hermiticity", "trace", "trace-imag", "negative",
            "trace-overflow", "spectrum-overflow",
        ],
    )
    def test_refusal(self, rho, message):
        with pytest.raises(InvalidStateError) as exc:
            check_state(rho)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.full((3, 3), np.nan), "expected a 4x4 density matrix, got (3, 3)"),
            (_state([((1, 2), np.nan), ((0, 1), 0.3)]), "density matrix has a non-finite entry"),
            (
                _state([((1, 2), np.nan), ((0, 1), 1e308)]),
                "density matrix has a non-finite entry",
            ),
            (
                _state([((0, 1), 1e308)]),  # not Hermitian either
                "density matrix entry of modulus 1.000e+308 would overflow M + M† (limit 8.988e+307)",
            ),
            (_state([((0, 1), 0.3)], diagonal=(1.0, 1.0, 1.0, 1.0)), "density matrix is not Hermitian"),
            (_state(diagonal=(2.0, -0.5, 0.0, 0.0)), "trace (1.5+0j) != 1"),
        ],
        ids=["shape-nan", "nan-hermiticity", "nan-overflow", "overflow-hermiticity", "hermiticity-trace", "trace-negative"],
    )
    def test_first_failure_wins(self, rho, message):
        with pytest.raises(InvalidStateError) as exc:
            check_state(rho)
        assert str(exc.value) == message

    def test_accepts_within_tolerance(self):
        rho = _state([((0, 1), 1e-11)], diagonal=(0.25, 0.25, 0.25 + 5e-11, 0.25 - 5e-11))
        assert check_state(rho) is not None
        assert check_state(PHI_PLUS).tolist() == PHI_PLUS.tolist()


class TestCheckStateMemo:
    """check_state remembers the bytes of the last state it accepted."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = chshlab.chsh.eig_hermitian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(chshlab.chsh, "eig_hermitian", counting)
        return calls

    def test_equal_bytes_skip_the_solve(self, solves):
        rho = schmidt_state(0.2).density_matrix()
        check_state(rho)
        assert len(solves) == 1
        twin = rho.copy()
        assert check_state(twin) is twin
        assert check_state(twin.tolist()).tolist() == rho.tolist()
        assert len(solves) == 1

    def test_mutated_after_acceptance_is_refused(self):
        rho = schmidt_state(0.2).density_matrix()
        check_state(rho)
        rho[0, 0] += 1.0
        with pytest.raises(InvalidStateError, match="trace"):
            check_state(rho)

    def test_refusal_is_not_remembered(self, solves):
        bad = _state(diagonal=(1.5, -0.5, 0.0, 0.0))
        for _ in range(2):
            with pytest.raises(InvalidStateError, match="negative eigenvalue"):
                check_state(bad)
        assert len(solves) == 2

    def test_refusal_keeps_the_accepted_state(self, solves):
        check_state(MIXED)
        with pytest.raises(InvalidStateError):
            check_state(np.eye(4))
        check_state(MIXED.copy())
        assert len(solves) == 2


class TestBornTable:
    def test_mixed_state_uniform(self):
        povms = noisy_family_povms(0.7)
        table = born_table(*povms, MIXED)
        assert np.allclose(table, 0.25, atol=1e-12)

    def test_phi_plus_perfect_zz_correlation(self):
        sharp_z = noisy_pauli_povm(Z_AXIS, 1.0)
        table = born_table(sharp_z, sharp_z, sharp_z, sharp_z, PHI_PLUS)
        slice_ = table[0, 0]
        assert slice_[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert slice_[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert slice_[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert slice_[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_chsh_from_table_matches_quadratic_scaling(self):
        for lam in (0.3, 0.8, 1.0):
            table = born_table(*noisy_family_povms(lam), PHI_PLUS)
            assert chsh_from_table(table) == pytest.approx(TSIRELSON * lam * lam, abs=1e-12)

    def test_normalization_and_range(self, rng):
        axes = random_axes(rng, 4)
        povms = [noisy_pauli_povm(ax, float(rng.uniform(0, 1))) for ax in axes]
        e = float(rng.uniform(0, 0.5))
        table = born_table(*povms, schmidt_state(e).density_matrix())
        assert np.all(table >= -1e-12)
        assert np.all(table <= 1 + 1e-12)
        assert np.allclose(table.sum(axis=(2, 3)), 1.0, atol=1e-12)


def born_table_by_definition(povms, rho):
    """p[x, y, i, j] = tr(ρ M_{i|x} ⊗ N_{j|y}), one trace per entry."""
    alice = [(p.effect_plus, p.effect_minus) for p in povms[:2]]
    bob = [(p.effect_plus, p.effect_minus) for p in povms[2:]]
    table = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for i in range(2):
                for j in range(2):
                    table[x, y, i, j] = np.trace(rho @ np.kron(alice[x][i], bob[y][j])).real
    return table


_unit = st.floats(-1.0, 1.0, allow_nan=False)
_axis = st.tuples(_unit, _unit, _unit).filter(lambda v: np.linalg.norm(v) > 0.1)
_noisy_povm = st.builds(
    lambda v, lam: noisy_pauli_povm(np.asarray(v) / np.linalg.norm(v), lam),
    _axis,
    st.floats(0.0, 1.0),
)
_gram_factor = st.lists(_unit, min_size=32, max_size=32).filter(
    lambda xs: np.linalg.norm(xs) > 0.1
)


def _mixed_state(xs):
    g = np.asarray(xs[:16]).reshape(4, 4) + 1j * np.asarray(xs[16:]).reshape(4, 4)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBornTableProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(_noisy_povm, _noisy_povm, _noisy_povm, _noisy_povm), _gram_factor)
    def test_matches_definition_and_normalizes(self, povms, xs):
        rho = _mixed_state(xs)
        table = born_table(*povms, rho)
        assert np.max(np.abs(table - born_table_by_definition(povms, rho))) <= 1e-14
        assert np.max(np.abs(table.sum(axis=(2, 3)) - 1.0)) <= 1e-14


class TestSampleEstimate:
    POVMS = noisy_family_povms(1.0)
    CANONICAL_POVMS = tuple(
        noisy_pauli_povm(ax, 1.0) for ax in canonical_axes(CanonicalAngles(theta=np.pi / 4, phi=np.pi / 2))
    )

    def test_deterministic_given_seed(self):
        a = sample_estimate(self.POVMS, PHI_PLUS, 5000, seed=42)
        b = sample_estimate(self.POVMS, PHI_PLUS, 5000, seed=42)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
        assert np.array_equal(a.correlators, b.correlators)

    def test_different_seeds_differ(self):
        a = sample_estimate(self.POVMS, PHI_PLUS, 5000, seed=1)
        b = sample_estimate(self.POVMS, PHI_PLUS, 5000, seed=2)
        assert a.estimate != b.estimate

    def test_estimates_tsirelson_within_5_sigma(self):
        result = sample_estimate(self.POVMS, PHI_PLUS, 200_000, seed=11)
        assert abs(result.estimate - TSIRELSON) <= 5 * result.std_error

    def test_mixed_state_estimates_zero(self):
        result = sample_estimate(self.POVMS, MIXED, 200_000, seed=5)
        assert abs(result.estimate) <= 5 * result.std_error

    # (estimate, std_error, correlators) recorded from a per-pair scalar
    # implementation: reading the counts as a table must not move a bit
    @pytest.mark.parametrize(
        "povms, rho, shots, seed, expected",
        [
            (POVMS, PHI_PLUS, 5000, 42, "(2.8228, 0.020038288948909785, [[0.7056, 0.692], [0.7136, -0.7116]])"),
            (
                CANONICAL_POVMS,
                schmidt_state(0.3).density_matrix(),
                12345,
                7,
                "(2.5313892264074522, 0.012941353604906454, "
                "[[0.9201296071283921, 0.9202916160388821], [0.33592547590117455, -0.35504252733900366]])",
            ),
            (noisy_family_povms(0.7), MIXED, 1, 0, "(2.0, 0.0, [[-1.0, -1.0], [1.0, 1.0]])"),
            (
                noisy_family_povms(0.9),
                schmidt_state(0.1).density_matrix(),
                10**12,
                3,
                "(1.832821704164, 1.76286763581943e-06, "
                "[[0.572757935934, 0.572757365612], [0.343652107838, -0.34365429478]])",
            ),
        ],
        ids=["phi+", "canonical", "one-shot", "1e12-shots"],
    )
    def test_pinned(self, povms, rho, shots, seed, expected):
        result = sample_estimate(povms, rho, shots, seed)
        # compared by repr, which tells every bit apart
        assert repr((result.estimate, result.std_error, result.correlators.tolist())) == expected
        assert repr(result.exact) == repr(chsh_from_table(born_table(*povms, rho)))

    def test_rejects_zero_shots(self):
        from chshlab.errors import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            sample_estimate(self.POVMS, PHI_PLUS, 0, seed=0)

    def test_rejects_negative_seed(self):
        from chshlab.errors import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            sample_estimate(self.POVMS, PHI_PLUS, 10, seed=-1)

    @pytest.mark.parametrize(
        "shots, seed, refused",
        [
            (2.5, 0, "shots_per_pair"),
            (2.0, 0, "shots_per_pair"),
            (np.float64(10.0), 0, "shots_per_pair"),
            (10, 1.5, "seed"),
            (10, "1", "seed"),
        ],
        ids=["fractional-shots", "float-shots", "numpy-float-shots", "float-seed", "str-seed"],
    )
    def test_rejects_non_integers(self, shots, seed, refused):
        bad = shots if refused == "shots_per_pair" else seed
        with pytest.raises(OutOfRangeError) as exc:
            sample_estimate(self.POVMS, PHI_PLUS, shots, seed)
        assert str(exc.value) == f"{refused} must be an integer, got {bad!r}"

    def test_accepts_numpy_integers(self):
        want = sample_estimate(self.POVMS, PHI_PLUS, 5000, 42)
        got = sample_estimate(self.POVMS, PHI_PLUS, np.int64(5000), np.uint32(42))
        assert (got.estimate, got.std_error, got.shots_per_pair, got.seed) == (
            want.estimate, want.std_error, 5000, 42
        )
        assert type(got.shots_per_pair) is int and type(got.seed) is int


def _pauli_observable(n):
    return n[0] * SX + n[1] * SY + n[2] * SZ


class TestSpectralDefinitions:
    """Every spectral call equals its value from explicit numpy definitions."""

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(_axis, _axis, _axis, _axis), st.floats(0.0, 0.5))
    def test_matches_kron_and_commutators(self, axes, e):
        a0, a1, b0, b1 = (_pauli_observable(np.asarray(v) / np.linalg.norm(v)) for v in axes)
        setting = ChshSetting(a0, a1, b0, b1)
        s = np.kron(a0, b0 + b1) + np.kron(a1, b0 - b1)
        j = 0.25 * np.kron(a1 @ a0 - a0 @ a1, b0 @ b1 - b1 @ b0)
        # the cached operators are these formulas, bit for bit
        assert np.array_equal(chsh_operator(setting), s)
        assert np.array_equal(commutator_tensor(setting), j)
        top = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        rep = landau_bound(setting)
        assert rep.bound == pytest.approx(top, abs=1e-9)
        assert rep.mu == pytest.approx(float(np.linalg.eigvalsh(j)[-1]), abs=1e-12)
        assert max_over_states(setting).value == pytest.approx(top, abs=1e-12)
        assert incompatibility_degree(setting) == pytest.approx(float(np.linalg.norm(j, 2)), abs=1e-12)
        rho = schmidt_state(e).density_matrix()
        assert chsh_value(setting, rho) == pytest.approx(abs(np.trace(rho @ s).real), abs=1e-12)
