"""Hot kernels, in Python; Bob's 4x4 eigensolves go through numpy's LAPACK.

BACKEND names the implementation; perfbench/run.py records it.

Kernels:
  chsh_objective      CHSH expectation of a locally rotated Schmidt state
  maximize_chsh       Nelder-Mead ascent of chsh_objective from one start
  dykstra_feasibility parent-POVM feasibility by cyclic Dykstra projections

The CHSH objective works in the rotation picture (Horodecki et al., Phys.
Lett. A 200, 340 (1995)).  A two-qubit expectation <S> is sum_mn r_mn c_mn
over Pauli coordinates r_mn = tr(rho s_m x s_n) and c_mn = tr(S s_m x s_n)/4.
The Schmidt state has local z components 2E-1 and correlations
diag(C, -C, 1), C = 2 sqrt(E(1-E)), and a local unitary rotates each
party's Bloch coordinates by an SO(3) matrix.  So one evaluation is a few
3x3 real products; the 4x4 complex amplitudes are never formed.

Of the six unitary parameters the objective sees five.  U(psi, phi, theta)
= U(0, phi, theta) diag(e^{i psi/2}, e^{-i psi/2}), and on the Schmidt state
the two diagonal factors give e^{i(psi1+psi2)/2} sqrt(E)|00> +
e^{-i(psi1+psi2)/2} sqrt(1-E)|11>: only psi1 + psi2 enters, for every
operator S.  So Alice's rotation is taken at psi1 = 0 and Bob's at psi1 +
psi2.

The objective is linear in Bob's rotation: at Alice's U(0, phi1, theta1)
it is t + tr(G M2^T) for a 3x3 G (_alice_profile), and chsh_objective
reads it so, with M2 = Rz(psi1 + psi2) Ry(theta2) Rz(phi2) (_rotation).
Its maximum over M2 in SO(3) is s1 + s2 + sign(det G) s3 from G's singular
values, the largest eigenvalue of Horn's symmetric 4x4 matrix N(G)
(_horn; Horn, JOSA A 4, 629 (1987); Umeyama, IEEE TPAMI 13, 376 (1991)).
The setting picks the route once per search: where K's yy entry is 0, as
for every setting with axes in the xz plane, G's y column is 0 and that
eigenvalue has a closed form in G's other six entries; elsewhere numpy's
eigvalsh reads it.  The simplex climbs that maximum over Alice's (phi1,
theta1) alone, its three vertices held in nine local floats (per
evaluation it builds no tuple and sorts no list).  At its end N's top
eigenvector (numpy's eigh) is the quaternion of Bob's best rotation, its
Euler angles are read straight off it (_bob_angles), and psi2 moves to
Alice, so Bob's returned psi is 0.  The simplex needs no derivatives, and
no step of the search reads the closed-form maximum, so it remains an
independent oracle for it.
"""

from __future__ import annotations

from math import atan2, cos, hypot, sin, sqrt
from operator import mul

import numpy as np

BACKEND = "python"

_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_NM_STEP = 0.5
_NM_DIAMETER_TOL = 1e-9
_NM_MAX_ITER = 5000
_PLATEAU_WINDOW = 500
_PLATEAU_RTOL = 1e-12


def _pauli_coefficients(s, e):
    """The constants the objective reads, for real 16-float S at entanglement E.

    c_mn = tr(S s_m x s_n)/4 with Alice's Pauli first, and K = (c_ij).  For
    real S every coefficient with a single Y vanishes, so c_A, c_B have no y
    component and K's y row and column hold only c_yy.  Returns (c_00,
    (2E-1) c_x0, (2E-1) c_z0, (2E-1) c_0x, (2E-1) c_0z, C, k_xx, k_xz, k_zx,
    k_zz, k_yy).
    """
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15 = map(float, s)
    e = float(e)
    w = 2.0 * e - 1.0
    return (
        0.25 * (s0 + s5 + s10 + s15),
        w * 0.25 * (s2 + s7 + s8 + s13),
        w * 0.25 * (s0 + s5 - s10 - s15),
        w * 0.25 * (s1 + s4 + s11 + s14),
        w * 0.25 * (s0 - s5 + s10 - s15),
        2.0 * sqrt(e * (1.0 - e)),
        0.25 * (s3 + s6 + s9 + s12),
        0.25 * (s2 - s7 + s8 - s13),
        0.25 * (s1 + s4 - s11 - s14),
        0.25 * (s0 - s5 - s10 + s15),
        0.25 * (-s3 + s6 + s9 - s12),
    )


def _rotation(psi, theta, phi):
    """Rz(psi) Ry(theta) Rz(phi) row-major: the rotation whose angles _bob_angles reads."""
    cp, sp, ct, st, cf, sf = cos(psi), sin(psi), cos(theta), sin(theta), cos(phi), sin(phi)
    u, v = cp * ct, sp * ct
    return (
        u * cf - sp * sf, -u * sf - sp * cf, cp * st,
        v * cf + cp * sf, cp * cf - v * sf, sp * st,
        -st * cf, st * sf, ct,
    )


def _objective(profile, psi, phi1, th1, th2, phi2):
    """t + tr(G M2^T), (t, G) the profile's terms at (phi1, theta1) and M2 = _rotation(psi, theta2, phi2)."""
    t, g = profile(phi1, th1, matrix=True)
    return t + sum(map(mul, g, _rotation(psi, th2, phi2)))


def chsh_objective(s, e, x):
    """CHSH expectation <v|S|v>, v = (U1 x U2)(sqrt(E)|00> + sqrt(1-E)|11>).

    s: 16 floats, the real-symmetric CHSH operator row-major.
    x: 6 floats (psi1, phi1, theta1, psi2, phi2, theta2); only psi1 + psi2
    enters (module docstring).
    """
    psi1, phi1, th1, psi2, phi2, th2 = map(float, x)
    return _objective(_alice_profile(_pauli_coefficients(s, e)), psi1 + psi2, phi1, th1, th2, phi2)


def _alice_profile(coef):
    """(phi1, theta1) -> the objective's maximum over Bob's rotation, at Alice's U(0, phi1, theta1).

    coef is from _pauli_coefficients.  U(psi, phi, theta) rotates Bloch
    vectors by M^T, M = _rotation(psi, theta, phi).  With p_k, q_k the rows
    of Alice's M1 and Bob's M2 the objective is
      c_00 + (2E-1)(c_A . p_z + c_B . q_z) + C(p_x.Kq_x - p_y.Kq_y) + p_z.Kq_z,
    that is t + tr(G M2^T) with t = c_00 + (2E-1) c_A . p_z and G with rows
    g_k = D_k p_k K, D = (C, -C, 1), plus (2E-1) c_B on the z row.  At psi1
    = 0 Alice's rows are p_x = (ct cf, -ct sf, st), p_y = (sf, cf, 0) and
    p_z = (-st cf, st sf, ct), with ct, st, cf, sf the cosines and sines of
    theta1 and phi1.  C K's five entries (C k_xx, C k_xz, C k_zx, C k_zz,
    C k_yy) are multiplied out once per profile, and both branches read
    them, so chsh_objective at maximize_chsh's point is its value
    exactly.  With matrix=True the profile returns (t, G), G row-major,
    all nine entries; otherwise t + x with x = max over M in SO(3) of
    tr(G M^T), the largest eigenvalue of _horn(G).

    The route follows k_yy, fixed for the profile.  _horn(G)'s
    characteristic polynomial is (x^2 - a)^2 - 8dx - 4b^2, with a =
    |G|_F^2, b = |cof G|_F and d = det G.  When k_yy = 0, as for every
    canonical setting (its axes lie in the xz plane), G's y column (g1,
    g4, g7) is +-0 at every angle, so d = 0 and x = sqrt(a + 2b), where a
    sums the squares of the other six entries and b = |g_x x g_z|: the
    only nonzero cofactors are the cross product of G's x and z columns.
    The terms left out are +0.0, so every float is the one the nine-entry
    sums give.  Otherwise eigvalsh reads x at every evaluation, well
    conditioned where the quartic's root is multiple.
    """
    c00, ax, az, bx, bz, conc, kxx, kxz, kzx, kzz, kyy = coef
    cxx, cxz, czx, czz, cyy = conc * kxx, conc * kxz, conc * kzx, conc * kzz, conc * kyy
    flat = kyy == 0.0

    def profile(phi1, th1, matrix=False):
        ct, st, cf, sf = cos(th1), sin(th1), cos(phi1), sin(phi1)
        u, v = ct * cf, st * cf
        t = c00 - ax * v + az * ct
        g0, g2, g3, g5 = cxx * u + czx * st, cxz * u + czz * st, -cxx * sf, -cxz * sf
        g6, g8 = bx + kzx * ct - kxx * v, bz + kzz * ct - kxz * v
        if matrix or not flat:
            g = (g0, -cyy * ct * sf, g2, g3, -cyy * cf, g5, g6, kyy * st * sf, g8)
            return (t, g) if matrix else t + float(np.linalg.eigvalsh(_horn(g))[-1])
        # the nonzero cofactors: the cross product of G's x and z columns
        c1, c4, c7 = g5 * g6 - g3 * g8, g8 * g0 - g6 * g2, g2 * g3 - g0 * g5
        a = g0 * g0 + g2 * g2 + g3 * g3 + g5 * g5 + g6 * g6 + g8 * g8
        return t + sqrt(a + 2.0 * sqrt(c1 * c1 + c4 * c4 + c7 * c7))

    return profile


def _horn(g):
    """Horn's symmetric 4x4 matrix N for G row-major: q^T N q = tr(G R(q)^T) for a unit quaternion q.

    R(q) is the rotation of q = (w, i, j, k), whose ZYZ angles _bob_angles
    reads off q.
    """
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = g
    return np.array([
        [g0 + g4 + g8, g7 - g5, g2 - g6, g3 - g1],
        [g7 - g5, g0 - g4 - g8, g1 + g3, g2 + g6],
        [g2 - g6, g1 + g3, g4 - g0 - g8, g5 + g7],
        [g3 - g1, g2 + g6, g5 + g7, g8 - g0 - g4],
    ])


def _bob_angles(g):
    """(psi, theta, phi) with _rotation(psi, theta, phi) maximizing tr(G M^T), for G row-major.

    Horn's top eigenvector q = (w, i, j, k) of _horn(G), from numpy's eigh,
    is the quaternion of the maximizing rotation.  That of Rz(psi) Ry(theta)
    Rz(phi) is (cos(theta/2) cos s, -sin(theta/2) sin d, sin(theta/2) cos d,
    cos(theta/2) sin s) with s = (psi + phi)/2 and d = (psi - phi)/2, so the
    angles are read straight off q, theta in [0, pi].  At theta = 0 or pi
    one atan2 reads (+-0, +-0), and any value it returns is correct.  Any
    unit vector of the top eigenspace attains the maximum, so a degenerate
    top eigenvalue (rank-1 G, as at E = 0, or G = 0) needs no special case.
    """
    w, i, j, k = np.linalg.eigh(_horn(g))[1][:, -1].tolist()
    s, d = atan2(k, w), atan2(-i, j)
    return s + d, 2.0 * atan2(hypot(i, j), hypot(w, k)), s - d


def _ranked(p, q, r):
    """Vertices (x, y, value) best first by value; ties keep their order.

    The insertions a stable sort makes: q before p if it is larger, then r
    after every vertex it does not exceed.
    """
    if q[2] > p[2]:
        p, q = q, p
    if r[2] > q[2]:
        return (r, p, q) if r[2] > p[2] else (p, r, q)
    return p, q, r


def maximize_chsh(s, e, x0):
    """Nelder-Mead maximization of chsh_objective from a single start.

    The simplex lives in Alice's two coordinates (phi1, theta1) at psi1 =
    0 and climbs the objective's exact maximum over Bob's rotation
    (_alice_profile; module docstring): the start is x0's phi1 and theta1,
    and its other four entries are not read.  Stops when the
    max-coordinate diameter of the simplex drops below _NM_DIAMETER_TOL or
    after _NM_MAX_ITER iterations.  Then Bob's ZYZ angles (psi2, theta2,
    phi2) at the best vertex are read off the top eigenvector of Horn's
    matrix (_bob_angles), and psi2 moves to Alice, as only psi1 + psi2
    enters.
    The value returned is chsh_objective at the six returned parameters.
    Returns (best_value, best_params[6], evaluations), with psi2 = 0.0 in
    params; evaluations counts the simplex's evaluations and that final
    objective.

    The three vertices are held in nine floats, (phi1, theta1, value) for
    the best a, the middle v and the worst w.  A reflection g is kept when
    f_a >= g > f_v; otherwise the step tries an expansion, then an inside
    or outside contraction, then shrinks toward a.  A new vertex goes
    after every vertex whose value ties with it, and a shrink re-ranks [a,
    v', w'] stably (_ranked), so tied vertices keep their age order.
    """
    profile = _alice_profile(_pauli_coefficients(s, e))
    _, ax, ay, _, _, _ = map(float, x0)
    tol = _NM_DIAMETER_TOL

    (ax, ay, fa), (vx, vy, fv), (wx, wy, fw) = _ranked(
        (ax, ay, profile(ax, ay)),
        (ax + _NM_STEP, ay, profile(ax + _NM_STEP, ay)),
        (ax, ay + _NM_STEP, profile(ax, ay + _NM_STEP)),
    )
    n_eval = 3

    for _ in range(_NM_MAX_ITER):
        if abs(vx - ax) < tol and abs(vy - ay) < tol and abs(wx - ax) < tol and abs(wy - ay) < tol:
            break  # every vertex within tol of the best, coordinate by coordinate

        # centroid of all but the worst
        mx, my = (ax + vx) / 2, (ay + vy) / 2
        dx, dy = mx - wx, my - wy
        rx, ry = mx + dx, my + dy
        fr = profile(rx, ry)
        n_eval += 1

        if fa >= fr > fv:
            vx, vy, fv, wx, wy, fw = rx, ry, fr, vx, vy, fv
        elif fr > fa:
            t = _NM_EXPAND
            ex, ey = mx + t * dx, my + t * dy
            fe = profile(ex, ey)
            n_eval += 1
            if fe > fr:
                rx, ry, fr = ex, ey, fe
            ax, ay, fa, vx, vy, fv, wx, wy, fw = rx, ry, fr, ax, ay, fa, vx, vy, fv
        else:
            t = _NM_CONTRACT
            if fr > fw:
                cx, cy = mx + t * dx, my + t * dy
            else:
                cx, cy = mx - t * dx, my - t * dy
            fc = profile(cx, cy)
            n_eval += 1
            if fc > max(fr, fw):
                if fc > fa:
                    ax, ay, fa, vx, vy, fv, wx, wy, fw = cx, cy, fc, ax, ay, fa, vx, vy, fv
                elif fc > fv:
                    vx, vy, fv, wx, wy, fw = cx, cy, fc, vx, vy, fv
                else:
                    wx, wy, fw = cx, cy, fc
            else:
                t = _NM_SHRINK
                vx, vy = ax + t * (vx - ax), ay + t * (vy - ay)
                wx, wy = ax + t * (wx - ax), ay + t * (wy - ay)
                (ax, ay, fa), (vx, vy, fv), (wx, wy, fw) = _ranked(
                    (ax, ay, fa), (vx, vy, profile(vx, vy)), (wx, wy, profile(wx, wy))
                )
                n_eval += 2

    psi, th2, phi2 = _bob_angles(profile(ax, ay, matrix=True)[1])
    return _objective(profile, psi, ax, ay, th2, phi2), [psi, ax, ay, 0.0, phi2, th2], n_eval + 1


def _proj_cone(y0, y1, y2, y3):
    """Project Pauli coordinates onto the PSD cone (eigenvalue clamp)."""
    r = sqrt(y1 * y1 + y2 * y2 + y3 * y3)
    if 0.5 * (y0 - r) >= 0.0:
        return y0, y1, y2, y3
    hi = 0.5 * (y0 + r)
    if hi <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    f = hi / r
    return hi, f * y1, f * y2, f * y3


def _cone_defect(y0, y1, y2, y3):
    r = sqrt(y1 * y1 + y2 * y2 + y3 * y3)
    lo = 0.5 * (y0 - r)
    return -lo if lo < 0.0 else 0.0


def dykstra_feasibility(m, n, x0, tol, max_iter):
    """Cyclic Dykstra projections for the parent-POVM feasibility problem.

    Coordinates are Pauli coordinates of the free effect G; the four PSD
    constraints are G, M-G, N-G and I-M-N+G where m, n are the coordinates
    of the two plus-effects.  Returns (x[4], residual, iterations, plateaued);
    residual is the worst negative-eigenvalue defect over the four blocks.
    It plateaus when it has moved by at most _PLATEAU_RTOL relative over
    the last _PLATEAU_WINDOW iterations.
    """
    m0, m1, m2, m3 = map(float, m)
    n0, n1, n2, n3 = map(float, n)
    c0 = m0 + n0 - 2.0
    c1 = m1 + n1
    c2 = m2 + n2
    c3 = m3 + n3
    x = list(map(float, x0))
    corr = [[0.0, 0.0, 0.0, 0.0] for _ in range(4)]
    hist = None  # allocated once a run outlasts its first iteration; most do not
    res = float("inf")

    for it in range(1, int(max_iter) + 1):
        for i in range(4):
            p = corr[i]
            y0 = x[0] + p[0]
            y1 = x[1] + p[1]
            y2 = x[2] + p[2]
            y3 = x[3] + p[3]
            if i == 0:
                z0, z1, z2, z3 = _proj_cone(y0, y1, y2, y3)
            elif i == 1:
                w0, w1, w2, w3 = _proj_cone(m0 - y0, m1 - y1, m2 - y2, m3 - y3)
                z0, z1, z2, z3 = m0 - w0, m1 - w1, m2 - w2, m3 - w3
            elif i == 2:
                w0, w1, w2, w3 = _proj_cone(n0 - y0, n1 - y1, n2 - y2, n3 - y3)
                z0, z1, z2, z3 = n0 - w0, n1 - w1, n2 - w2, n3 - w3
            else:
                w0, w1, w2, w3 = _proj_cone(y0 - c0, y1 - c1, y2 - c2, y3 - c3)
                z0, z1, z2, z3 = c0 + w0, c1 + w1, c2 + w2, c3 + w3
            p[0] = y0 - z0
            p[1] = y1 - z1
            p[2] = y2 - z2
            p[3] = y3 - z3
            x[0] = z0
            x[1] = z1
            x[2] = z2
            x[3] = z3

        res = _cone_defect(x[0], x[1], x[2], x[3])
        d = _cone_defect(m0 - x[0], m1 - x[1], m2 - x[2], m3 - x[3])
        if d > res:
            res = d
        d = _cone_defect(n0 - x[0], n1 - x[1], n2 - x[2], n3 - x[3])
        if d > res:
            res = d
        d = _cone_defect(x[0] - c0, x[1] - c1, x[2] - c2, x[3] - c3)
        if d > res:
            res = d

        if res <= tol:
            return x, res, it, False
        if hist is None:
            hist = [0.0] * _PLATEAU_WINDOW
        slot = it % _PLATEAU_WINDOW
        if it > _PLATEAU_WINDOW:
            prev = hist[slot]
            if abs(res - prev) <= _PLATEAU_RTOL * (res if res > 1e-300 else 1e-300):
                return x, res, it, True
        hist[slot] = res

    return x, res, int(max_iter), False
