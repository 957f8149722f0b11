"""The hot kernels against dense numpy routes and their own contracts."""

import inspect
from bisect import bisect_right
from math import cos, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chshlab
from chshlab import _kernels
from chshlab.chsh import chsh_operator
from chshlab.entanglement import (
    _PARAM_BOX,
    CanonicalAngles,
    UnitaryParams,
    canonical_setting,
    local_unitary,
    max_chsh_over_unitaries,
    rotated_chsh,
    schmidt_state,
)
from chshlab.linalg import SX, SY, SZ


def _operator(theta, phi):
    s = chsh_operator(canonical_setting(CanonicalAngles(theta=theta, phi=phi)))
    assert np.max(np.abs(s.imag)) <= 1e-12
    return np.ascontiguousarray(s.real.ravel())


def _random_case(rng):
    theta = float(rng.uniform(0, np.pi / 2))
    phi = float(rng.uniform(0, np.pi / 2))
    e = float(rng.uniform(0, 0.5))
    x = rng.uniform(0, 2 * np.pi, 6)
    return _operator(theta, phi), e, x, theta, phi


def test_selected_backend_is_known():
    assert _kernels.BACKEND == "python"


def test_backend_matches_kernels():
    assert chshlab.BACKEND == _kernels.BACKEND
    assert _kernels.maximize_chsh.__module__ == "chshlab._kernels"


def test_public_callables():
    # perfbench's tracer wraps every public function of this module as a layer
    public = {
        name
        for name, obj in vars(_kernels).items()
        if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == _kernels.__name__
    }
    assert public == {"chsh_objective", "maximize_chsh", "dykstra_feasibility"}


_ANGLE = st.floats(-4 * np.pi, 4 * np.pi)


def _dense_expectation(s, e, x, phi2s=None):
    """<v|S|v>, v = (U1 x U2)|psi_E>; an array over Bob's phi2 in phi2s, if given."""
    grid = x[4:5] if phi2s is None else phi2s
    u1 = local_unitary(UnitaryParams(*x[:3]))
    u2 = np.array([local_unitary(UnitaryParams(x[3], phi2, x[5])) for phi2 in grid])
    # v[g, i, k] = sum_jl U1[i, j] U2_g[k, l] psi[j, l], the (i, k) entry of (U1 x U2_g) psi
    v = np.einsum("ij,gkl,jl->gik", u1, u2, schmidt_state(e).vector.reshape(2, 2)).reshape(-1, 4)
    values = np.einsum("gi,ij,gj->g", v.conj(), s, v).real
    return float(values[0]) if phi2s is None else values


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
    e=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    x=st.lists(_ANGLE, min_size=6, max_size=6),
)
def test_objective_is_dense_expectation(entries, e, x):
    # any real-symmetric S, not only CHSH operators: <v|S|v> with v = (U1 x U2)|psi_E>
    a = np.array(entries).reshape(4, 4)
    s = (a + a.T) / 2
    assert _kernels.chsh_objective(s.ravel(), e, x) == pytest.approx(_dense_expectation(s, e, x), abs=1e-12)


def test_pure_objective_matches_dense_route(rng):
    # kernel vs the straightforward numpy computation
    for _ in range(50):
        s, e, x, theta, phi = _random_case(rng)
        got = _kernels.chsh_objective(s, e, x)
        want = rotated_chsh(
            e,
            CanonicalAngles(theta=theta, phi=phi),
            UnitaryParams(*x[:3]),
            UnitaryParams(*x[3:]),
        )
        assert got == pytest.approx(want, abs=1e-10)


def test_maximize_returns_its_own_value(rng):
    # the value returned is the objective at the point returned, exactly:
    # both read the same profile terms; and the ascent never ends below its
    # start
    for _ in range(25):
        s, e, x, *_ = _random_case(rng)
        value, best, evals = _kernels.maximize_chsh(s, e, x)
        assert _kernels.chsh_objective(s, e, best) == value
        assert value >= _kernels.chsh_objective(s, e, x)
        # 3 start evaluations (n + 1 over the 2 searched coordinates), at
        # least one iteration (the start simplex has diameter 0.5) and the
        # final objective at the returned point make 5; shrinking that
        # simplex below 1e-9 takes many more, so the bound of 7 still holds
        assert evals >= 7


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
    e=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    x=st.lists(_ANGLE, min_size=6, max_size=6),
    alpha=_ANGLE,
)
def test_objective_sees_only_psi_sum(entries, e, x, alpha):
    # U(psi,phi,theta) = U(0,phi,theta) diag(e^{i psi/2}, e^{-i psi/2}): on a
    # Schmidt state only psi1 + psi2 enters, whatever the operator
    a = np.array(entries).reshape(4, 4)
    s = (a + a.T) / 2
    shifted = [x[0] + alpha, x[1], x[2], x[3] - alpha, x[4], x[5]]
    assert _kernels.chsh_objective(s.ravel(), e, shifted) == pytest.approx(
        _kernels.chsh_objective(s.ravel(), e, x), abs=1e-12
    )
    assert _dense_expectation(s, e, shifted) == pytest.approx(_dense_expectation(s, e, x), abs=1e-12)


_PHI2_GRID = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)


def _along_phi2(s, e, x):
    # the dense route, not chsh_objective: that evaluates the profile's own terms
    return _dense_expectation(np.reshape(s, (4, 4)), e, x, _PHI2_GRID)


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
    e=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    x=st.lists(_ANGLE, min_size=6, max_size=6),
)
def test_returned_phi2_tops_the_phi2_grid(entries, e, x):
    # the phi2 maximize_chsh returns tops the dense grid along Bob's phi2
    # through its other five parameters
    m = np.array(entries).reshape(4, 4)
    s = ((m + m.T) / 2).ravel()
    value, best, _ = _kernels.maximize_chsh(s, e, x)
    assert value >= np.max(_along_phi2(s, e, best)) - 1e-12


_QUARTER = st.floats(0.0, np.pi / 2)
_E = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5))


def _profile_terms(s, e, phi1, th1):
    """(the profile's value t + x, t, G as 3x3) at Alice's (phi1, theta1)."""
    profile = _kernels._alice_profile(_kernels._pauli_coefficients(s, e))
    t, g = profile(phi1, th1, matrix=True)
    return profile(phi1, th1), t, np.reshape(g, (3, 3))


def _svd_maximum(g):
    """max over SO(3) of tr(G M^T): s1 + s2 + sign(det G) s3 (Umeyama)."""
    sv = np.linalg.svd(g, compute_uv=False)
    return sv[0] + sv[1] + np.sign(np.linalg.det(g)) * sv[2]


def _random_operator(rng):
    a = rng.uniform(-3.0, 3.0, (4, 4))
    return ((a + a.T) / 2).ravel()


@settings(max_examples=300, deadline=None)
@given(theta=_QUARTER, phi=_QUARTER, e=_E, phi1=_ANGLE, th1=_ANGLE)
def test_bob_maximum_is_svd_maximum_on_canonical_settings(theta, phi, e, phi1, th1):
    # a canonical setting's K has a zero y row and column, so G's y column
    # is exactly 0 at every angle, det G is 0, and the maximum is sqrt(a +
    # 2b) from G's x and z columns, with no eigensolve
    value, t, g = _profile_terms(_operator(theta, phi), e, phi1, th1)
    assert not g[:, 1].any()
    assert np.linalg.det(g) == 0.0
    assert value - t == pytest.approx(_svd_maximum(g), abs=1e-12)


def test_bob_maximum_is_svd_maximum_on_random_operators(rng):
    # k_yy != 0, so every evaluation reads the largest eigenvalue of Horn's
    # matrix by eigvalsh: det G != 0, and at E = 0, where G's x and y rows
    # vanish, det G = 0
    for k in range(2000):
        s = _random_operator(rng)
        e = (0.0, 0.5, float(rng.uniform(0.0, 0.5)))[k % 3]
        phi1, th1 = rng.uniform(-4 * np.pi, 4 * np.pi, 2)
        value, t, g = _profile_terms(s, e, phi1, th1)
        assert (np.linalg.det(g) != 0.0) == (e != 0.0)
        assert value - t == pytest.approx(_svd_maximum(g), abs=1e-12)


# sx.sx + sy.sy + sz.sz: K = I, so at E = 1/2 G = diag(1, -1, 1) M1 has
# s1 = s2 = s3 = 1 with det G < 0, and at E = 0.4 s2 = s3 < s1.  The maximum
# s1 + s2 - s3 is then a multiple eigenvalue of Horn's matrix, where a root
# of its characteristic quartic loses most of its digits
_HEISENBERG = sum(np.kron(p, p) for p in (SX, SY, SZ)).real


@pytest.mark.parametrize("e", [0.5, 0.4])
def test_bob_maximum_at_a_multiple_eigenvalue(rng, e):
    s = _HEISENBERG.ravel()
    for phi1, th1 in rng.uniform(-4 * np.pi, 4 * np.pi, (50, 2)):
        value, t, g = _profile_terms(s, e, phi1, th1)
        assert np.linalg.det(g) < 0.0
        assert value - t == pytest.approx(_svd_maximum(g), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    exponent=st.floats(-12.0, -6.0),
    e=_E,
    phi1=_ANGLE,
    th1=_ANGLE,
)
def test_bob_maximum_near_a_multiple_eigenvalue(entries, exponent, e, phi1, th1):
    # a symmetric perturbation of size 10^exponent splits the multiple
    # eigenvalue into a cluster of that width
    a = np.reshape(entries, (4, 4))
    s = _HEISENBERG + 10.0**exponent * (a + a.T) / 2
    value, t, g = _profile_terms(s.ravel(), e, phi1, th1)
    assert value - t == pytest.approx(_svd_maximum(g), abs=1e-12)


def _rz(a):
    return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    return np.array([[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]])


def _closing_rotation(g):
    """Horn's rotation for G, checked to lie in SO(3), and its ZYZ angles."""
    r = np.reshape(_kernels._bob_rotation(tuple(g.ravel())), (3, 3))
    assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-14
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    psi, theta, phi = _kernels._zyz(tuple(r.ravel()))
    rebuilt = np.reshape(_kernels._rotation(psi, theta, phi), (3, 3))
    assert np.max(np.abs(rebuilt - _rz(psi) @ _ry(theta) @ _rz(phi))) <= 1e-15
    assert np.max(np.abs(rebuilt - r)) <= 1e-14
    return rebuilt, theta


@settings(max_examples=300, deadline=None)
@given(theta=_QUARTER, phi=_QUARTER, e=_E, phi1=_ANGLE, th1=_ANGLE)
def test_closing_rotation_attains_bob_maximum(theta, phi, e, phi1, th1):
    # at E = 0, G has rank 1 and the top eigenvector of Horn's matrix is not
    # unique: any vector of its eigenspace must serve
    value, t, g = _profile_terms(_operator(theta, phi), e, phi1, th1)
    rebuilt, _ = _closing_rotation(g)
    assert np.sum(g * rebuilt) == pytest.approx(value - t, abs=1e-12)


def test_closing_rotation_attains_bob_maximum_on_random_operators(rng):
    for k in range(500):
        e = (0.0, 0.5, float(rng.uniform(0.0, 0.5)))[k % 3]
        value, t, g = _profile_terms(_random_operator(rng), e, *rng.uniform(-4 * np.pi, 4 * np.pi, 2))
        rebuilt, _ = _closing_rotation(g)
        assert np.sum(g * rebuilt) == pytest.approx(_svd_maximum(g), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, np.pi, 1e-9, np.pi - 1e-9, 1e-300], ids=["0", "pi", "near-0", "near-pi", "subnormal"])
def test_closing_rotation_at_gimbal_lock(rng, theta):
    # G = P R0 with P symmetric positive definite peaks at M = R0; at theta
    # = 0 or pi, R0's z column gives psi no direction, and the angles read
    # must still rebuild it
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        r0 = _rz(rng.uniform(-np.pi, np.pi)) @ _ry(theta) @ _rz(rng.uniform(-np.pi, np.pi))
        g = (a @ a.T + 0.1 * np.eye(3)) @ r0
        want = _svd_maximum(g)
        rebuilt, read = _closing_rotation(g)
        assert np.sum(g * rebuilt) == pytest.approx(want, abs=1e-12)
        assert abs(abs(read) - theta) <= 1e-9  # theta = pi may read as -pi


@settings(max_examples=200, deadline=None)
@given(theta=_QUARTER, phi=_QUARTER, e=_E, x=st.lists(_ANGLE, min_size=6, max_size=6))
def test_maximize_returns_the_profile_peak(theta, phi, e, x):
    # the returned six parameters attain the maximum over Bob's rotation at
    # the returned Alice angles: the closing rotation loses nothing
    s = _operator(theta, phi)
    value, best, _ = _kernels.maximize_chsh(s, e, x)
    peak, _, _ = _profile_terms(s, e, best[1], best[2])
    assert value == pytest.approx(peak, abs=1e-12)


def test_maximize_fixes_bobs_psi(rng):
    for _ in range(10):
        s, e, x, *_ = _random_case(rng)
        _, best, _ = _kernels.maximize_chsh(s, e, x)
        assert len(best) == 6 and best[3] == 0.0


def test_maximize_is_gauge_invariant(rng):
    # the start is folded to psi1 + psi2, so a start moved along the flat
    # direction searches the same landscape from the same point
    for _ in range(25):
        s, e, x, *_ = _random_case(rng)
        alpha = float(rng.uniform(-4 * np.pi, 4 * np.pi))
        shifted = x + np.array([alpha, 0.0, 0.0, -alpha, 0.0, 0.0])
        value, _, _ = _kernels.maximize_chsh(s, e, x)
        assert _kernels.maximize_chsh(s, e, shifted)[0] == pytest.approx(value, abs=1e-12)


def _by_value(verts, vals):
    """verts and vals sorted by value; ties keep their order."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [verts[k] for k in order], [vals[k] for k in order]


def _reference_profile(coef):
    """_kernels._alice_profile with Bob's maximum worked out per evaluation from all nine entries of G.

    The form the shipped profile's flat route must match bit for bit:
    every evaluation tests det G from G's nine entries, and where it is 0
    takes sqrt(a + 2b) from all nine cofactors; elsewhere it reads
    eigvalsh.
    """
    c00, ax, az, bx, bz, conc, kxx, kxz, kzx, kzz, kyy = coef
    cxx, cxz, czx, czz, cyy = conc * kxx, conc * kxz, conc * kzx, conc * kzz, conc * kyy

    def profile(phi1, th1, matrix=False):
        ct, st, cf, sf = cos(th1), sin(th1), cos(phi1), sin(phi1)
        u, v = ct * cf, st * cf
        t = c00 - ax * v + az * ct
        g0, g1, g2 = cxx * u + czx * st, -cyy * ct * sf, cxz * u + czz * st
        g3, g4, g5 = -cxx * sf, -cyy * cf, -cxz * sf
        g6, g7, g8 = bx + kzx * ct - kxx * v, kyy * st * sf, bz + kzz * ct - kxz * v
        if matrix:
            return t, (g0, g1, g2, g3, g4, g5, g6, g7, g8)
        # cofactors, row by row: cross products of the other two rows
        c0, c1, c2 = g4 * g8 - g5 * g7, g5 * g6 - g3 * g8, g3 * g7 - g4 * g6
        if g0 * c0 + g1 * c1 + g2 * c2 != 0.0:
            return t + float(np.linalg.eigvalsh(_kernels._horn((g0, g1, g2, g3, g4, g5, g6, g7, g8)))[-1])
        c3, c4, c5 = g7 * g2 - g8 * g1, g8 * g0 - g6 * g2, g6 * g1 - g7 * g0
        c6, c7, c8 = g1 * g5 - g2 * g4, g2 * g3 - g0 * g5, g0 * g4 - g1 * g3
        a = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4 + g5 * g5 + g6 * g6 + g7 * g7 + g8 * g8
        bb = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3 + c4 * c4 + c5 * c5 + c6 * c6 + c7 * c7 + c8 * c8
        return t + sqrt(a + 2.0 * sqrt(bb))

    return profile


def _reference_maximize(s, e, x0):
    """maximize_chsh's simplex with its vertices in sorted lists, on the shipped profile.

    The reference the register loop of _kernels.maximize_chsh must match
    bit for bit: the same steps, the same tie rules, the same closing
    rotation.
    """
    profile = _kernels._alice_profile(_kernels._pauli_coefficients(s, e))

    def f(pt):
        return -profile(*pt)

    _, phi1, th1, _, _, _ = map(float, x0)
    tol = _kernels._NM_DIAMETER_TOL

    # minimize the negated maximum; verts/vals stay sorted, ties in age order
    verts = [(phi1, th1), (phi1 + _kernels._NM_STEP, th1), (phi1, th1 + _kernels._NM_STEP)]
    vals = [f(pt) for pt in verts]
    n_eval = 3
    verts, vals = _by_value(verts, vals)

    for _ in range(_kernels._NM_MAX_ITER):
        (a0, a1), (v0, v1), (w0, w1) = verts
        if abs(v0 - a0) < tol and abs(v1 - a1) < tol and abs(w0 - a0) < tol and abs(w1 - a1) < tol:
            break  # every vertex within tol of the best, coordinate by coordinate

        # centroid of all but the worst
        m0, m1 = (a0 + v0) / 2, (a1 + v1) / 2
        d0, d1 = m0 - w0, m1 - w1
        xr = (m0 + d0, m1 + d1)
        gr = f(xr)
        n_eval += 1

        if vals[0] <= gr < vals[1]:
            x_new, g_new = xr, gr
        elif gr < vals[0]:
            t = _kernels._NM_EXPAND
            xe = (m0 + t * d0, m1 + t * d1)
            ge = f(xe)
            n_eval += 1
            x_new, g_new = (xe, ge) if ge < gr else (xr, gr)
        else:
            t = _kernels._NM_CONTRACT
            xc = (m0 + t * d0, m1 + t * d1) if gr < vals[2] else (m0 - t * d0, m1 - t * d1)
            gc = f(xc)
            n_eval += 1
            if gc < min(gr, vals[2]):
                x_new, g_new = xc, gc
            else:
                t = _kernels._NM_SHRINK
                shrunk = [(a0 + t * (v0 - a0), a1 + t * (v1 - a1)), (a0 + t * (w0 - a0), a1 + t * (w1 - a1))]
                verts, vals = _by_value([verts[0], *shrunk], [vals[0], *map(f, shrunk)])
                n_eval += 2
                continue

        # the replaced worst vertex goes after every vertex it ties with
        del verts[2], vals[2]
        k = bisect_right(vals, g_new)
        verts.insert(k, x_new)
        vals.insert(k, g_new)

    phi1, th1 = verts[0]
    psi, th2, phi2 = _kernels._zyz(_kernels._bob_rotation(profile(phi1, th1, matrix=True)[1]))
    return _kernels._objective(profile, psi, phi1, th1, th2, phi2), [psi, phi1, th1, 0.0, phi2, th2], n_eval + 1


def _symmetric(entries):
    a = np.reshape(entries, (4, 4))
    return ((a + a.T) / 2).ravel()


@settings(max_examples=400, deadline=None)
@given(
    s=st.one_of(
        # canonical S: k_yy = 0, the sqrt(a + 2b) route
        st.builds(_operator, _QUARTER, _QUARTER),
        # any real-symmetric S: k_yy != 0, the eigvalsh route
        st.builds(_symmetric, st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16)),
    ),
    e=_E,
    # starts in _PARAM_BOX and up to three boxes outside it on either side
    u=st.lists(st.floats(-3.0, 4.0), min_size=6, max_size=6),
)
def test_maximize_takes_the_reference_steps(s, e, u):
    x0 = np.multiply(u, _PARAM_BOX)
    assert _kernels.maximize_chsh(s, e, x0) == _reference_maximize(s, e, x0)


def _counting_profiles(monkeypatch):
    """Patch _alice_profile so that its profiles record every scalar-branch value; returns the record."""
    seen = []
    shipped = _kernels._alice_profile

    def counting(coef):
        profile = shipped(coef)

        def wrapped(phi1, th1, matrix=False):
            value = profile(phi1, th1, matrix)
            if not matrix:
                seen.append(value)
            return value

        return wrapped

    monkeypatch.setattr(_kernels, "_alice_profile", counting)
    return seen


# the f1 faces at Delta = 0 (theta or phi 0): at E = 1/2 the profile is 2
# to roundoff, so nearly every step ties and shrinks; at E = 0 about 40% of
# the steps shrink, and ties come where phi1 stops mattering at the poles
_FLAT_FACES = [(theta, phi, e) for theta, phi in ((0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0)) for e in (0.0, 0.5)]


@pytest.mark.parametrize("theta, phi, e", _FLAT_FACES)
def test_maximize_takes_the_reference_steps_on_flat_faces(monkeypatch, theta, phi, e):
    # 20 starts as in one max_chsh_over_unitaries item
    s = _operator(theta, phi)
    starts = np.random.default_rng(801).uniform(0.0, 1.0, (20, 6)) * _PARAM_BOX
    want = [_reference_maximize(s, e, x0) for x0 in starts]
    seen = _counting_profiles(monkeypatch)
    assert [_kernels.maximize_chsh(s, e, x0) for x0 in starts] == want
    assert len(set(seen)) < len(seen) / 2  # ties: most values are repeats


_FACE = st.one_of(st.sampled_from([0.0, np.pi / 2]), _QUARTER)


@settings(max_examples=200, deadline=None)
@given(theta=_FACE, phi=_FACE, e=_E, phi1=_ANGLE, th1=_ANGLE, x=st.lists(_ANGLE, min_size=6, max_size=6))
def test_flat_route_is_the_nine_entry_form_bit_for_bit(theta, phi, e, phi1, th1, x):
    # on a canonical setting the flat route drops only +0.0 terms, added
    # in the same order: the same floats at every point, all nine entries
    # with matrix=True, and so the same search step for step
    s = _operator(theta, phi)
    coef = _kernels._pauli_coefficients(s, e)
    shipped, reference = _kernels._alice_profile(coef), _reference_profile(coef)
    assert shipped(phi1, th1) == reference(phi1, th1)
    t, g = shipped(phi1, th1, matrix=True)
    assert (t, g) == reference(phi1, th1, matrix=True)
    assert g[1] == g[4] == g[7] == 0.0
    want = _kernels.maximize_chsh(s, e, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_alice_profile", _reference_profile)
        assert _kernels.maximize_chsh(s, e, x) == want


def _counting_eigvalsh(monkeypatch):
    """Patch numpy.linalg.eigvalsh to record its calls; returns the record."""
    calls = []
    shipped = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return shipped(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("theta, phi, e", [*_FLAT_FACES, (np.pi / 3, np.pi / 4, 0.3)])
def test_canonical_search_reads_no_eigvalsh(monkeypatch, theta, phi, e):
    # k_yy = 0 fixes the closed-form route for the whole search
    calls = _counting_eigvalsh(monkeypatch)
    max_chsh_over_unitaries(e, CanonicalAngles(theta=theta, phi=phi))
    assert calls == []


@pytest.mark.parametrize("e", [0.0, 0.4, 0.5])
def test_off_plane_search_reads_eigvalsh_per_evaluation(monkeypatch, rng, e):
    # k_yy != 0: every scalar evaluation reads eigvalsh, even at E = 0,
    # where det G = 0; the closing rotation reads eigh, not eigvalsh
    seen = _counting_profiles(monkeypatch)
    calls = _counting_eigvalsh(monkeypatch)
    _, _, evals = _kernels.maximize_chsh(_HEISENBERG.ravel(), e, rng.uniform(0, 2 * np.pi, 6))
    assert calls == [(4, 4)] * len(seen)
    assert len(seen) == evals - 1


def test_evaluations_count_profile_calls(monkeypatch, rng):
    # perfbench's tracer reads evals as the kernel's work count: every
    # scalar profile call of the simplex, plus the final objective
    seen = _counting_profiles(monkeypatch)
    cases = [_random_case(rng)[:3] for _ in range(20)]
    for _ in range(10):
        cases.append((_symmetric(rng.uniform(-3.0, 3.0, 16)), float(rng.uniform(0.0, 0.5)), rng.uniform(0, 2 * np.pi, 6)))
    cases += [(_operator(theta, phi), e, np.zeros(6)) for theta, phi, e in _FLAT_FACES]
    for s, e, x0 in cases:
        seen.clear()
        _, _, evals = _kernels.maximize_chsh(s, e, x0)
        assert evals == len(seen) + 1


def test_dykstra_feasible_point_within_tolerance(rng):
    # the x returned on success is PSD-feasible for all four blocks
    for _ in range(20):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        lam = float(rng.uniform(0, 0.6))  # safely compatible
        m = np.array([1.0, *(lam * axes[0])])
        n = np.array([1.0, *(lam * axes[1])])
        x0 = (m + n) / 2 - np.array([0.5, 0.0, 0.0, 0.0])
        x, res, _, _ = _kernels.dykstra_feasibility(m, n, x0, 1e-9, 200_000)
        assert res <= 1e-9

        def min_eig(c):
            return 0.5 * (c[0] - np.linalg.norm(c[1:]))

        e4 = np.array([2.0, 0.0, 0.0, 0.0])
        x = np.asarray(x)
        for block in (x, m - x, n - x, x - (m + n - e4)):
            assert min_eig(block) >= -1e-9


def _dykstra_from_midpoint(m, n, tol, max_iter):
    x0 = [(a + b) / 2.0 for a, b in zip(m, n)]
    x0[0] -= 0.5
    return _kernels.dykstra_feasibility(m, n, x0, tol, max_iter)


_NOISY_Z_HALF = [1.0, 0.0, 0.0, 0.5]
_THIN_PLUS_X = [0.6, 0.6, 0.0, 0.0]  # 0.6·|+x><+x|


@pytest.mark.parametrize(
    "m, n, tol, max_iter, expected",
    [
        # z/x noisy Paulis at λ = ½: the midpoint is feasible
        (_NOISY_Z_HALF, [1.0, 0.5, 0.0, 0.0], 1e-9, 200_000, ([0.5, 0.25, 0.0, 0.25], 0.0, 1, False)),
        # z/x at λ = 0.8, incompatible: the residual plateaus
        (
            [1.0, 0.0, 0.0, 0.8], [1.0, 0.8, 0.0, 0.0], 1e-9, 200_000,
            ([0.5000000000000036, 0.44644660940672354, 0.0, 0.4464466094067241], 0.06568542494923452, 593, True),
        ),
        # a thin feasible set: 0.6·|+x><+x| against noisy z at λ = ½ converges
        # slowly, past many turns of the plateau window
        (
            _THIN_PLUS_X, _NOISY_Z_HALF, 1e-4, 200_000,
            ([0.2999500011888465, 0.30005001444964935, 0.0, 0.00774648016311924], 9.999659544210338e-05, 16135, False),
        ),
        # the same pair at a tighter tol, cut off by max_iter
        (
            _THIN_PLUS_X, _NOISY_Z_HALF, 1e-9, 1000,
            ([0.29968091700279476, 0.30031965660509935, 0.0, 0.01957660325482269], 0.0006380611769951916, 1000, False),
        ),
    ],
    ids=["one-iteration", "plateau", "thin-set", "max-iter"],
)
def test_dykstra_runs_are_pinned(m, n, tol, max_iter, expected):
    # recorded while the plateau history was still allocated up front, and
    # compared by repr, which tells every bit apart, signed zeros included
    assert repr(_dykstra_from_midpoint(m, n, tol, max_iter)) == repr(expected)
