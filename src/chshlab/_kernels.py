"""Hot kernels, in plain Python.

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
operator S, so Bob's psi is fixed at 0 and psi1 - psi2 is never walked.

Of those five, the search walks four.  The objective is linear in Bob's
rotation rows, and each entry of those is linear in (cos phi2, sin phi2) or
free of phi2, so the objective is a + b cos phi2 + c sin phi2 with a, b, c
independent of phi2.  That is its one formula: _azimuth_profile gives (a,
b, c) at z = (psi1 + psi2, phi1, theta1, theta2), and chsh_objective, like
the value maximize_chsh returns, is a + b cos phi2 + c sin phi2 of them.
The maximum over phi2 is a + hypot(b, c), reached at atan2(c, b) (the
structure Rotosolve exploits: Ostaszewski, Grant, Benedetti, Quantum 5,
391 (2021)), so the simplex climbs that profile over z and solves phi2
exactly once at its end.  The search stays derivative-free over every
local unitary and never uses the closed-form maximum, so it remains an
independent oracle for it.
"""

from __future__ import annotations

from bisect import bisect_right
from math import atan2, cos, hypot, sin, sqrt

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


def _azimuth_profile(coef):
    """z -> a + hypot(b, c), the maximum over phi2 of the objective, or (a, b, c) with terms=True.

    coef is from _pauli_coefficients, z = (psi1 + psi2, phi1, theta1, theta2).
    U(psi, phi, theta) rotates Bloch vectors by M^T, M = Rz(psi) Ry(theta)
    Rz(phi), and U1 = U(psi1 + psi2, phi1, theta1), U2 = U(0, phi2, theta2)
    give the same vector as the six parameters (module docstring).  With
    p_k, q_k the rows of M1, M2 the objective is
      c_00 + (2E-1)(c_A . p_z + c_B . q_z) + C(p_x.Kq_x - p_y.Kq_y) + p_z.Kq_z.
    Bob's rows are (ct cf, -ct sf, st), (sf, cf, 0) and (-st cf, st sf, ct),
    with ct, st, cf, sf the cosines and sines of theta2 and phi2.  Collecting
    their cf and sf terms, the objective is a + b cos phi2 + c sin phi2, with
      a = c_00 + (2E-1)(c_A . p_z + c_0z ct) + C st (p_x.K_z) + ct (p_z.K_z),
      b = C (ct (p_x.K_x) - k_yy p_y,y) - st ((2E-1) c_0x + p_z.K_x),
      c = k_yy p_z,y st - C (k_yy p_x,y ct + p_y.K_x),
    and K_x, K_z are K's x and z columns.  Six trig calls for Alice's
    rotation and two for Bob's theta; the maximum is at phi2 = atan2(c, b).
    """
    c00, ax, az, bx, bz, conc, kxx, kxz, kzx, kzz, kyy = coef

    def profile(z, terms=False):
        psi, phi1, th1, th2 = z
        cp, sp, ct, st, cf, sf = cos(psi), sin(psi), cos(th1), sin(th1), cos(phi1), sin(phi1)
        u, v = cp * ct, sp * ct
        p0, p1, p2 = u * cf - sp * sf, -u * sf - sp * cf, cp * st
        p3, p4, p5 = v * cf + cp * sf, cp * cf - v * sf, sp * st
        p6, p7, p8 = -st * cf, st * sf, ct
        ct, st = cos(th2), sin(th2)
        a = c00 + ax * p6 + az * p8 + bz * ct + conc * st * (kxz * p0 + kzz * p2) + ct * (kxz * p6 + kzz * p8)
        b = conc * (ct * (kxx * p0 + kzx * p2) - kyy * p4) - st * (bx + kxx * p6 + kzx * p8)
        c = kyy * p7 * st - conc * (kyy * p1 * ct + kxx * p3 + kzx * p5)
        return (a, b, c) if terms else a + hypot(b, c)

    return profile


def chsh_objective(s, e, x):
    """CHSH expectation <v|S|v>, v = (U1 x U2)(sqrt(E)|00> + sqrt(1-E)|11>).

    s: 16 floats, the real-symmetric CHSH operator row-major.
    x: 6 floats (psi1, phi1, theta1, psi2, phi2, theta2); only psi1 + psi2
    enters (module docstring).
    """
    psi1, phi1, th1, psi2, phi2, th2 = map(float, x)
    a, b, c = _azimuth_profile(_pauli_coefficients(s, e))((psi1 + psi2, phi1, th1, th2), terms=True)
    return a + b * cos(phi2) + c * sin(phi2)


def _by_value(verts, vals):
    """verts and vals sorted by value; ties keep their order."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [verts[k] for k in order], [vals[k] for k in order]


def maximize_chsh(s, e, x0):
    """Nelder-Mead maximization of chsh_objective from a single start.

    The simplex lives in the four coordinates z = (psi1 + psi2, phi1,
    theta1, theta2) and maximizes the objective's exact maximum over phi2,
    a + hypot(b, c) from _azimuth_profile (module docstring): the start is x0
    folded to z, its phi2 is not read, and the flat direction psi1 - psi2
    is never searched.  Stops when the max-coordinate diameter of the
    simplex drops below _NM_DIAMETER_TOL or after _NM_MAX_ITER iterations.
    Then phi2 = atan2(c, b) at the best vertex, and the value returned is
    chsh_objective at the six returned parameters.  Returns (best_value,
    best_params[6], evaluations), with psi2 = 0.0 in params; evaluations
    counts the simplex's profile evaluations and that final objective.
    """
    g = _azimuth_profile(_pauli_coefficients(s, e))
    psi1, phi1, th1, psi2, _, th2 = map(float, x0)
    z0 = (psi1 + psi2, phi1, th1, th2)
    tol = _NM_DIAMETER_TOL

    # minimize the negated profile; verts/vals stay sorted, ties in age order
    verts = [z0]
    for i in range(4):
        pt = list(z0)
        pt[i] += _NM_STEP
        verts.append(tuple(pt))
    vals = [-g(pt) for pt in verts]
    n_eval = 5
    verts, vals = _by_value(verts, vals)

    for _ in range(_NM_MAX_ITER):
        (a0, a1, a2, a3), v1, v2, v3, (w0, w1, w2, w3) = verts
        for p0, p1, p2, p3 in verts[1:]:
            if abs(p0 - a0) >= tol or abs(p1 - a1) >= tol or abs(p2 - a2) >= tol or abs(p3 - a3) >= tol:
                break
        else:
            break  # every vertex within tol of the best, coordinate by coordinate

        # centroid of all but the worst, added in vertex order as sum() adds
        m0 = (a0 + v1[0] + v2[0] + v3[0]) / 4
        m1 = (a1 + v1[1] + v2[1] + v3[1]) / 4
        m2 = (a2 + v1[2] + v2[2] + v3[2]) / 4
        m3 = (a3 + v1[3] + v2[3] + v3[3]) / 4
        d0, d1, d2, d3 = m0 - w0, m1 - w1, m2 - w2, m3 - w3
        xr = (m0 + d0, m1 + d1, m2 + d2, m3 + d3)
        gr = -g(xr)
        n_eval += 1

        if vals[0] <= gr < vals[3]:
            x_new, g_new = xr, gr
        elif gr < vals[0]:
            t = _NM_EXPAND
            xe = (m0 + t * d0, m1 + t * d1, m2 + t * d2, m3 + t * d3)
            ge = -g(xe)
            n_eval += 1
            x_new, g_new = (xe, ge) if ge < gr else (xr, gr)
        else:
            t = _NM_CONTRACT
            if gr < vals[4]:
                r0, r1, r2, r3 = xr
                xc = (m0 + t * (r0 - m0), m1 + t * (r1 - m1), m2 + t * (r2 - m2), m3 + t * (r3 - m3))
            else:
                xc = (m0 - t * d0, m1 - t * d1, m2 - t * d2, m3 - t * d3)
            gc = -g(xc)
            n_eval += 1
            if gc < min(gr, vals[4]):
                x_new, g_new = xc, gc
            else:
                t = _NM_SHRINK
                shrunk = [
                    (a0 + t * (p0 - a0), a1 + t * (p1 - a1), a2 + t * (p2 - a2), a3 + t * (p3 - a3))
                    for p0, p1, p2, p3 in verts[1:]
                ]
                verts, vals = _by_value([verts[0], *shrunk], [vals[0], *(-g(pt) for pt in shrunk)])
                n_eval += 4
                continue

        # the replaced worst vertex goes after every vertex it ties with
        del verts[4], vals[4]
        k = bisect_right(vals, g_new)
        verts.insert(k, x_new)
        vals.insert(k, g_new)

    psi, phi1, th1, th2 = verts[0]
    a, b, c = g(verts[0], terms=True)
    phi2 = atan2(c, b)
    return a + b * cos(phi2) + c * sin(phi2), [psi, phi1, th1, 0.0, phi2, th2], n_eval + 1


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
