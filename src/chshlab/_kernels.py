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
"""

from __future__ import annotations

from bisect import bisect_right
from math import cos, sin, sqrt

BACKEND = "python"

_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_NM_STEP = 0.5
_NM_DIAMETER_TOL = 1e-9
_NM_MAX_ITER = 5000
_PLATEAU_WINDOW = 500
_PLATEAU_RTOL = 1e-12


def _rotated_objective(s, e):
    """x -> <v|S|v>, v = (U1 x U2)(sqrt(E)|00> + sqrt(1-E)|11>), for real 16-float S.

    U(psi, phi, theta) rotates Bloch vectors by M^T, M = Rz(psi) Ry(theta)
    Rz(phi).  With p_k, q_k the rows of M1, M2 the value is
    c_00 + (2E-1)(c_A . p_z + c_B . q_z) + C(p_x.Kq_x - p_y.Kq_y) + p_z.Kq_z,
    K = (c_ij).  For real S every coefficient with a single Y vanishes, so
    c_A, c_B have no y component and K's y row and column hold only c_yy.
    """
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15 = s
    # c_mn = tr(S s_m x s_n)/4, Alice's Pauli first; k_ij = c_ij
    c00 = 0.25 * (s0 + s5 + s10 + s15)
    c0x = 0.25 * (s1 + s4 + s11 + s14)
    c0z = 0.25 * (s0 - s5 + s10 - s15)
    cx0 = 0.25 * (s2 + s7 + s8 + s13)
    cz0 = 0.25 * (s0 + s5 - s10 - s15)
    kxx = 0.25 * (s3 + s6 + s9 + s12)
    kxz = 0.25 * (s2 - s7 + s8 - s13)
    kzx = 0.25 * (s1 + s4 - s11 - s14)
    kzz = 0.25 * (s0 - s5 - s10 + s15)
    kyy = 0.25 * (-s3 + s6 + s9 - s12)
    w = 2.0 * e - 1.0
    conc = 2.0 * sqrt(e * (1.0 - e))
    ax, az, bx, bz = w * cx0, w * cz0, w * c0x, w * c0z

    def objective(x):
        psi1, phi1, th1, psi2, phi2, th2 = x
        cp, sp, ct, st, cf, sf = cos(psi1), sin(psi1), cos(th1), sin(th1), cos(phi1), sin(phi1)
        u, v = cp * ct, sp * ct
        p0, p1, p2 = u * cf - sp * sf, -u * sf - sp * cf, cp * st
        p3, p4, p5 = v * cf + cp * sf, cp * cf - v * sf, sp * st
        p6, p7, p8 = -st * cf, st * sf, ct
        cp, sp, ct, st, cf, sf = cos(psi2), sin(psi2), cos(th2), sin(th2), cos(phi2), sin(phi2)
        u, v = cp * ct, sp * ct
        q0, q1, q2 = u * cf - sp * sf, -u * sf - sp * cf, cp * st
        q3, q4, q5 = v * cf + cp * sf, cp * cf - v * sf, sp * st
        q6, q7, q8 = -st * cf, st * sf, ct
        xx = p0 * (kxx * q0 + kxz * q2) + kyy * p1 * q1 + p2 * (kzx * q0 + kzz * q2)
        yy = p3 * (kxx * q3 + kxz * q5) + kyy * p4 * q4 + p5 * (kzx * q3 + kzz * q5)
        zz = p6 * (kxx * q6 + kxz * q8) + kyy * p7 * q7 + p8 * (kzx * q6 + kzz * q8)
        return c00 + ax * p6 + az * p8 + bx * q6 + bz * q8 + conc * (xx - yy) + zz

    return objective


def chsh_objective(s, e, x):
    """CHSH expectation <v|S|v>, v = (U1 x U2)(sqrt(E)|00> + sqrt(1-E)|11>).

    s: 16 floats, the real-symmetric CHSH operator row-major.
    x: 6 floats (psi1, phi1, theta1, psi2, phi2, theta2).
    """
    return _rotated_objective(tuple(map(float, s)), float(e))(tuple(map(float, x)))


def _spread(verts, tol):
    """True once some coordinate of a vertex lies tol or more from the best one's."""
    best = verts[0]
    for pt in verts[1:]:
        for a, b in zip(pt, best):
            if abs(a - b) >= tol:
                return True
    return False


def _by_value(verts, vals):
    """verts and vals sorted by value; ties keep their order."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [verts[k] for k in order], [vals[k] for k in order]


def maximize_chsh(s, e, x0):
    """Nelder-Mead maximization of chsh_objective from a single start.

    Stops when the max-coordinate diameter of the simplex drops below
    _NM_DIAMETER_TOL or after _NM_MAX_ITER iterations.  Returns
    (best_value, best_params[6], evaluations).
    """
    f = _rotated_objective(tuple(map(float, s)), float(e))
    n = 6

    # minimize the negated objective; verts/vals stay sorted, ties in age order
    verts = [list(map(float, x0))]
    for i in range(n):
        pt = list(verts[0])
        pt[i] += _NM_STEP
        verts.append(pt)
    vals = [-f(pt) for pt in verts]
    n_eval = n + 1
    verts, vals = _by_value(verts, vals)

    for _ in range(_NM_MAX_ITER):
        if not _spread(verts, _NM_DIAMETER_TOL):
            break

        centroid = [sum(col) / n for col in zip(*verts[:n])]
        worst = verts[n]
        xr = [c + _NM_REFLECT * (c - w) for c, w in zip(centroid, worst)]
        gr = -f(xr)
        n_eval += 1

        if vals[0] <= gr < vals[n - 1]:
            x_new, g_new = xr, gr
        elif gr < vals[0]:
            xe = [c + _NM_EXPAND * (c - w) for c, w in zip(centroid, worst)]
            ge = -f(xe)
            n_eval += 1
            x_new, g_new = (xe, ge) if ge < gr else (xr, gr)
        else:
            if gr < vals[n]:
                xc = [c + _NM_CONTRACT * (r - c) for c, r in zip(centroid, xr)]
            else:
                xc = [c - _NM_CONTRACT * (c - w) for c, w in zip(centroid, worst)]
            gc = -f(xc)
            n_eval += 1
            if gc < min(gr, vals[n]):
                x_new, g_new = xc, gc
            else:
                best = verts[0]
                for j in range(1, n + 1):
                    pt = verts[j]
                    for i in range(n):
                        pt[i] = best[i] + _NM_SHRINK * (pt[i] - best[i])
                    vals[j] = -f(pt)
                n_eval += n
                verts, vals = _by_value(verts, vals)
                continue

        # the replaced worst vertex goes after every vertex it ties with
        del verts[n], vals[n]
        k = bisect_right(vals, g_new)
        verts.insert(k, x_new)
        vals.insert(k, g_new)

    return -vals[0], list(verts[0]), n_eval


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
    hist = [0.0] * _PLATEAU_WINDOW
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
        slot = it % _PLATEAU_WINDOW
        if it > _PLATEAU_WINDOW:
            prev = hist[slot]
            if abs(res - prev) <= _PLATEAU_RTOL * (res if res > 1e-300 else 1e-300):
                return x, res, it, True
        hist[slot] = res

    return x, res, int(max_iter), False
