"""Schmidt states, local-unitary search, closed form and nonlocality region."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab.chsh import chsh_value, landau_bound, violates
from chshlab.entanglement import (
    CanonicalAngles,
    UnitaryParams,
    canonical_axes,
    canonical_setting,
    entanglement_threshold,
    incompatibility_monotonicity,
    local_unitary,
    max_chsh_closed_form,
    max_chsh_over_unitaries,
    nonlocality_region,
    rotated_chsh,
    schmidt_state,
    stationarity_ratios,
    stationary_angles,
    stationary_unitary_params,
)
from chshlab.errors import DegenerateDeltaError, NonRealTraceError, OutOfRangeError
from chshlab.linalg import SZ
from chshlab.measurement import bloch_observable, incompatibility_degree

TSIRELSON = 2.8284271247461903
IDENTITY_PARAMS = UnitaryParams(0.0, 0.0, 0.0)


@pytest.mark.parametrize("e", [-1e-9, 0.5 + 1e-9, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "entry",
    [
        schmidt_state,
        lambda e: max_chsh_closed_form(e, 0.5),
        incompatibility_monotonicity,
        lambda e: max_chsh_over_unitaries(e, CanonicalAngles(theta=1.0, phi=1.0)),
    ],
    ids=["schmidt_state", "max_chsh_closed_form", "incompatibility_monotonicity", "max_chsh_over_unitaries"],
)
def test_every_entry_point_refuses_e_outside_range(entry, e):
    with pytest.raises(OutOfRangeError, match=r"^entanglement parameter .* outside \[0, 1/2\]$"):
        entry(e)


class TestSchmidtState:
    def test_maximally_entangled(self):
        state = schmidt_state(0.5)
        assert np.allclose(state.vector, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_product_state(self):
        assert np.allclose(schmidt_state(0.0).vector, [0, 0, 0, 1])

    def test_quarter(self):
        assert np.allclose(schmidt_state(0.25).vector, [0.5, 0, 0, np.sqrt(3) / 2])

    def test_unit_norm(self, rng):
        for e in rng.uniform(0, 0.5, size=10):
            assert np.linalg.norm(schmidt_state(float(e)).vector) == pytest.approx(1.0, abs=1e-12)

    def test_range_check(self):
        for bad in (-0.01, 0.51, 1.0):
            with pytest.raises(OutOfRangeError):
                schmidt_state(bad)


class TestCanonicalSetting:
    def test_maximal_angles_reach_tsirelson(self):
        setting = canonical_setting(CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2))
        assert landau_bound(setting).bound == pytest.approx(TSIRELSON, abs=1e-9)

    def test_zero_angles_collapse_to_z(self):
        setting = canonical_setting(CanonicalAngles(theta=0.0, phi=0.0))
        for obs in setting.observables():
            assert np.allclose(obs, SZ)
        assert incompatibility_degree(setting) == pytest.approx(0.0, abs=1e-12)

    def test_axes_in_xz_plane(self):
        th, ph = 1.1, 0.4
        angles = CanonicalAngles(theta=th, phi=ph)
        axes = canonical_axes(angles)
        expected = (
            [0.0, 0.0, 1.0],
            [np.sin(ph), 0.0, np.cos(ph)],
            [np.sin(th / 2), 0.0, np.cos(th / 2)],
            [-np.sin(th / 2), 0.0, np.cos(th / 2)],
        )
        for got, want in zip(axes, expected):
            assert np.allclose(got, want, atol=1e-15)
        for obs, axis in zip(canonical_setting(angles).observables(), axes):
            assert np.array_equal(obs, bloch_observable(axis))

    def test_delta_property(self):
        angles = CanonicalAngles(theta=np.pi / 3, phi=np.pi / 4)
        assert angles.delta == pytest.approx(0.6123724356957945, abs=1e-12)
        assert incompatibility_degree(canonical_setting(angles)) == pytest.approx(
            angles.delta, abs=1e-9
        )

    def test_angle_range_check(self):
        with pytest.raises(OutOfRangeError):
            CanonicalAngles(theta=2.0, phi=0.0)
        with pytest.raises(OutOfRangeError):
            CanonicalAngles(theta=0.0, phi=-0.1)


class TestLocalUnitary:
    def test_identity(self):
        assert np.allclose(local_unitary(IDENTITY_PARAMS), np.eye(2))

    def test_theta_pi(self):
        u = local_unitary(UnitaryParams(0.0, 0.0, np.pi))
        assert np.allclose(u, [[0, 1], [-1, 0]], atol=1e-15)

    def test_random_params_unitary(self, rng):
        for _ in range(50):
            p = UnitaryParams(*rng.uniform(0, 2 * np.pi, size=3))
            u = local_unitary(p)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


class TestRotatedChsh:
    def test_identity_rotation_maximal(self):
        angles = CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2)
        value = rotated_chsh(0.5, angles, IDENTITY_PARAMS, IDENTITY_PARAMS)
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_commuting_setting_bounded_by_two(self, rng):
        angles = CanonicalAngles(theta=0.0, phi=0.0)
        for _ in range(50):
            p1 = UnitaryParams(*rng.uniform(0, 2 * np.pi, size=3))
            p2 = UnitaryParams(*rng.uniform(0, 2 * np.pi, size=3))
            e = float(rng.uniform(0, 0.5))
            assert abs(rotated_chsh(e, angles, p1, p2)) <= 2.0 + 1e-12

    def test_product_state_never_violates(self, rng):
        # 1000 random draws at E=0 stay inside the LHV bound
        for _ in range(1000):
            angles = CanonicalAngles(
                theta=float(rng.uniform(0, np.pi / 2)), phi=float(rng.uniform(0, np.pi / 2))
            )
            p1 = UnitaryParams(*rng.uniform(0, 4 * np.pi, size=3))
            p2 = UnitaryParams(*rng.uniform(0, 4 * np.pi, size=3))
            assert abs(rotated_chsh(0.0, angles, p1, p2)) <= 2.0 + 1e-12

    def test_agrees_with_direct_expectation(self, rng):
        # the dense route must equal chsh_value on the rotated state
        from chshlab.chsh import chsh_operator, state_from_vector

        for _ in range(20):
            angles = CanonicalAngles(
                theta=float(rng.uniform(0, np.pi / 2)), phi=float(rng.uniform(0, np.pi / 2))
            )
            e = float(rng.uniform(0, 0.5))
            p1 = UnitaryParams(*rng.uniform(0, 4 * np.pi, size=3))
            p2 = UnitaryParams(*rng.uniform(0, 4 * np.pi, size=3))
            u = np.kron(local_unitary(p1), local_unitary(p2))
            rho = state_from_vector(u @ schmidt_state(e).vector)
            direct = float(np.trace(rho @ chsh_operator(canonical_setting(angles))).real)
            assert rotated_chsh(e, angles, p1, p2) == pytest.approx(direct, abs=1e-12)

    def test_imaginary_residue_guard(self):
        from chshlab import entanglement as ent

        original = ent.chsh_operator
        ent.chsh_operator = lambda s: np.diag([1j * 1e-6, 0, 0, 0])  # poisoned assembly
        try:
            with pytest.raises(NonRealTraceError):
                rotated_chsh(0.5, CanonicalAngles(np.pi / 2, np.pi / 2), IDENTITY_PARAMS, IDENTITY_PARAMS)
        finally:
            ent.chsh_operator = original


class TestClosedForm:
    def test_maximal(self):
        assert max_chsh_closed_form(0.5, 1.0) == pytest.approx(TSIRELSON, abs=1e-15)

    def test_zero_delta_is_two(self, rng):
        for e in rng.uniform(0, 0.5, size=10):
            assert max_chsh_closed_form(float(e), 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_quarter_half(self):
        # X = 1 - 2 sqrt(3/16) = 0.1339745962155614
        assert max_chsh_closed_form(0.25, 0.5) == pytest.approx(2.380139388662163, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(OutOfRangeError):
            max_chsh_closed_form(0.6, 0.5)
        with pytest.raises(OutOfRangeError):
            max_chsh_closed_form(0.25, 1.5)

    def test_never_exceeds_tsirelson(self, rng):
        for _ in range(200):
            v = max_chsh_closed_form(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 1)))
            assert v <= TSIRELSON + 1e-12


class TestMaximizeOverUnitaries:
    def test_tsirelson(self):
        angles = CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2)
        value, _ = max_chsh_over_unitaries(0.5, angles, seed=3)
        assert value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_matches_closed_form_sample(self):
        angles = CanonicalAngles(theta=np.pi / 2, phi=np.pi / 6)  # delta = 0.5
        value, _ = max_chsh_over_unitaries(0.25, angles, seed=3)
        assert value == pytest.approx(max_chsh_closed_form(0.25, 0.5), abs=1e-6)

    def test_product_state_stays_local(self):
        angles = CanonicalAngles(theta=np.pi / 3, phi=np.pi / 2)
        value, _ = max_chsh_over_unitaries(0.0, angles, seed=3)
        assert value <= 2.0 + 1e-9
        assert value == pytest.approx(max_chsh_closed_form(0.0, angles.delta), abs=1e-6)

    def test_deterministic_given_seed(self):
        angles = CanonicalAngles(theta=1.1, phi=0.7)
        a = max_chsh_over_unitaries(0.3, angles, seed=9)
        b = max_chsh_over_unitaries(0.3, angles, seed=9)
        assert a[0] == b[0]
        assert a[1] == b[1]

    @pytest.mark.parametrize(
        "e, theta, phi",
        [(0.35, 1.2, 0.9)] + [
            (e, theta, phi)
            for e in (0.0, 0.25, 0.5)
            for theta in (0.0, np.pi / 4, np.pi / 2)
            for phi in (0.0, np.pi / 4, np.pi / 2)
        ],
    )
    def test_argmax_attains_value(self, e, theta, phi):
        # the dense route re-scores the returned unitaries, on the f1 subgrid too
        angles = CanonicalAngles(theta=theta, phi=phi)
        value, (p1, p2) = max_chsh_over_unitaries(e, angles, seed=1)
        assert rotated_chsh(e, angles, p1, p2) == pytest.approx(value, abs=1e-12)

    def test_matches_closed_form_on_f1_subgrid(self):
        # every other point of verify f1's 5x5x5 grid, boundary faces included
        for e in (0.0, 0.25, 0.5):
            for theta in (0.0, np.pi / 4, np.pi / 2):
                for phi in (0.0, np.pi / 4, np.pi / 2):
                    angles = CanonicalAngles(theta=theta, phi=phi)
                    value, _ = max_chsh_over_unitaries(e, angles)
                    assert value == pytest.approx(max_chsh_closed_form(e, angles.delta), abs=1e-12)

    @pytest.mark.parametrize("seed", [21, 22], ids=["uniform", "near-maximal"])
    def test_no_stall_near_maximal_entanglement(self, seed):
        # 40 random points each: E uniform in [0, 1/2), or E = 1/2 - 10^U(-6,-1)
        # where the 4-coordinate simplex once collapsed short of the maximum
        # (2.1e-11 and 1.3e-10 below it on these two sets)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            e = float(rng.uniform(0.0, 0.5)) if seed == 21 else 0.5 - 10 ** rng.uniform(-6, -1)
            theta, phi = rng.uniform(0.0, np.pi / 2, 2)
            angles = CanonicalAngles(theta=float(theta), phi=float(phi))
            value, _ = max_chsh_over_unitaries(e, angles, seed=0)
            assert value == pytest.approx(max_chsh_closed_form(e, angles.delta), abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # numpy's ValueError and TypeError escaped for these
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": "1"}, "seed must be an integer, got '1'"),
        ],
        ids=["negative-seed", "fractional-seed", "str-seed"],
    )
    def test_rejects_non_integer_arguments(self, kwargs, message):
        with pytest.raises(OutOfRangeError) as exc:
            max_chsh_over_unitaries(0.3, CanonicalAngles(1.0, 1.0), **kwargs)
        assert str(exc.value) == message

    def test_accepts_numpy_integers(self):
        angles = CanonicalAngles(theta=1.0, phi=0.5)
        want = max_chsh_over_unitaries(0.3, angles, seed=7)
        got = max_chsh_over_unitaries(0.3, angles, seed=np.uint64(7))
        assert got[0] == want[0] and got[1][0].theta == want[1][0].theta


class TestStationarity:
    def test_reference_values(self):
        (sin_sum, cos_sum), _ = stationarity_ratios(CanonicalAngles(np.pi / 2, np.pi / 4))
        assert sin_sum == pytest.approx(-0.9238795325112867, abs=1e-12)
        assert cos_sum == pytest.approx(0.38268343236509006, abs=1e-12)

    def test_phi_zero_halves_theta(self, rng):
        for theta in rng.uniform(0.1, np.pi / 2, size=10):
            angles = CanonicalAngles(theta=float(theta), phi=0.0)
            theta_sum, theta_diff = stationary_angles(angles)
            assert theta_sum == pytest.approx(-theta / 2, abs=1e-12)
            assert theta_diff == pytest.approx(theta / 2, abs=1e-12)

    def test_theta_zero_is_trivial(self):
        theta_sum, theta_diff = stationary_angles(CanonicalAngles(theta=0.0, phi=0.7))
        assert theta_sum == 0.0
        assert theta_diff == 0.0

    def test_unit_circle_consistency(self):
        for theta in np.linspace(0.0, np.pi / 2, 30):
            for phi in np.linspace(0.0, np.pi / 2, 30):
                angles = CanonicalAngles(theta=float(theta), phi=float(phi))
                if 1.0 - angles.delta < 1e-9:
                    continue
                (ss, cs), (sd, cd) = stationarity_ratios(angles)
                assert ss * ss + cs * cs == pytest.approx(1.0, abs=1e-10)
                assert sd * sd + cd * cd == pytest.approx(1.0, abs=1e-10)

    def test_substitution_reproduces_closed_form(self, rng):
        for _ in range(60):
            angles = CanonicalAngles(
                theta=float(rng.uniform(0, np.pi / 2)), phi=float(rng.uniform(0, np.pi / 2))
            )
            if 1.0 - angles.delta < 1e-6:
                continue
            e = float(rng.uniform(0, 0.5))
            p1, p2 = stationary_unitary_params(angles)
            assert rotated_chsh(e, angles, p1, p2) == pytest.approx(
                max_chsh_closed_form(e, angles.delta), abs=1e-9
            )

    def test_degenerate_delta_rejected(self):
        with pytest.raises(DegenerateDeltaError):
            stationary_angles(CanonicalAngles(theta=np.pi / 2, phi=np.pi / 2))

    def test_opposite_psi_branch_never_wins(self, rng):
        # psi1 + psi2 = pi branch stays below the psi1 + psi2 = 0 optimum
        for _ in range(300):
            angles = CanonicalAngles(
                theta=float(rng.uniform(0, np.pi / 2)), phi=float(rng.uniform(0, np.pi / 2))
            )
            e = float(rng.uniform(0, 0.5))
            psi1 = float(rng.uniform(0, 4 * np.pi))
            p1 = UnitaryParams(psi1, 0.0, float(rng.uniform(0, np.pi)))
            p2 = UnitaryParams(np.pi - psi1, 0.0, float(rng.uniform(0, np.pi)))
            branch = rotated_chsh(e, angles, p1, p2)
            assert branch <= max_chsh_closed_form(e, angles.delta) + 1e-9


class TestNonlocalityRegion:
    def test_maximal_entanglement_any_delta(self, rng):
        for delta in rng.uniform(1e-6, 1.0, size=20):
            assert nonlocality_region(0.5, float(delta))

    def test_product_state_never(self, rng):
        for delta in rng.uniform(0.0, 1.0, size=20):
            assert not nonlocality_region(0.0, float(delta))

    def test_non_monotone_witness(self):
        # low entanglement: local at full incompatibility, nonlocal at 0.1
        assert not nonlocality_region(0.03, 1.0)
        assert nonlocality_region(0.03, 0.1)
        assert max_chsh_closed_form(0.03, 1.0) == pytest.approx(1.896707085645688, abs=1e-12)
        assert max_chsh_closed_form(0.03, 0.1) == pytest.approx(2.031652424931163, abs=1e-12)

    def test_margin_matches_violates(self):
        # at E = 1/2 and delta = 5e-10 the maximum is 2 + 5e-10, inside the margin
        value = max_chsh_closed_form(0.5, 5e-10)
        assert nonlocality_region(0.5, 5e-10) == violates(value)

    def test_small_delta_expansion(self):
        # first order in delta: any positive entanglement goes nonlocal
        for e in (0.01, 0.1, 0.3, 0.5):
            assert nonlocality_region(e, 1e-4)


class TestEntanglementThreshold:
    def test_value(self):
        assert entanglement_threshold() == pytest.approx(0.04491013943777261, abs=1e-12)

    def test_boundary_exactly_two(self):
        assert max_chsh_closed_form(entanglement_threshold(), 1.0) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_tightness(self):
        thr = entanglement_threshold()
        assert not nonlocality_region(thr - 1e-6, 1.0)
        for delta in np.linspace(1e-3, 1.0, 100):
            assert nonlocality_region(thr + 1e-3, float(delta))


class TestMonotonicity:
    def test_maximal_entanglement_increasing(self):
        report = incompatibility_monotonicity(0.5)
        assert report.monotone
        assert report.increasing is True

    def test_quarter_has_interior_maximum(self):
        report = incompatibility_monotonicity(0.25)
        assert not report.monotone
        assert report.extremum_delta is not None
        assert 0.0 < report.extremum_delta < 1.0

    def test_product_state_decreasing(self):
        report = incompatibility_monotonicity(0.0)
        assert report.monotone
        assert report.increasing is False

    def test_range_check(self):
        for e in (-1e-9, 0.5 + 1e-9, float("nan")):
            with pytest.raises(OutOfRangeError):
                incompatibility_monotonicity(e)

    def test_weak_entanglement_rises_first(self):
        # C = 2√(E(1-E)) ≈ 0.002: the maximum sits near delta = 2C ≈ 0.004
        report = incompatibility_monotonicity(1e-6)
        assert not report.monotone
        assert report.extremum_delta == pytest.approx(0.0039999, abs=1e-7)

    def test_extremum_matches_calculus(self):
        # stationary delta solves (2-X)/sqrt(1+d) = X/sqrt(1-d)
        from math import sqrt

        e = 0.25
        x = 1 - 2 * sqrt(e * (1 - e))
        a = (2 - x) ** 2
        b = x * x
        d_star = (a - b) / (a + b)
        report = incompatibility_monotonicity(e)
        assert report.extremum_delta == pytest.approx(d_star, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 0.5))
    def test_extremum_beats_grid(self, e):
        report = incompatibility_monotonicity(e)
        if report.monotone:
            d_star = 1.0 if report.increasing else 0.0
        else:
            d_star = report.extremum_delta
        best = max_chsh_closed_form(e, d_star)
        grid = max(max_chsh_closed_form(e, float(d)) for d in np.linspace(0.0, 1.0, 10_000))
        assert best >= grid - 1e-14
