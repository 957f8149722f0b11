"""Hot kernels, in plain Python.

BACKEND names the implementation; perfbench/run.py records it.

Kernels:
  chsh_objective      CHSH expectation of a locally rotated Schmidt state
  maximize_chsh       Nelder-Mead ascent of chsh_objective from one start
  dykstra_feasibility parent-POVM feasibility by cyclic Dykstra projections
"""

from __future__ import annotations

from math import cos, sin, sqrt

BACKEND = "python"

_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_NM_STEP = 0.5


def _objective(s, e, x):
    psi1, phi1, th1, psi2, phi2, th2 = x
    ca = 0.5 * (psi1 + phi1)
    cb = 0.5 * (psi1 - phi1)
    c1 = cos(0.5 * th1)
    s1 = sin(0.5 * th1)
    u1_00 = complex(c1 * cos(ca), c1 * sin(ca))
    u1_01 = complex(s1 * cos(cb), -s1 * sin(cb))
    u1_10 = complex(-s1 * cos(cb), -s1 * sin(cb))
    u1_11 = complex(c1 * cos(ca), -c1 * sin(ca))

    da = 0.5 * (psi2 + phi2)
    db = 0.5 * (psi2 - phi2)
    c2 = cos(0.5 * th2)
    s2 = sin(0.5 * th2)
    u2_00 = complex(c2 * cos(da), c2 * sin(da))
    u2_01 = complex(s2 * cos(db), -s2 * sin(db))
    u2_10 = complex(-s2 * cos(db), -s2 * sin(db))
    u2_11 = complex(c2 * cos(da), -c2 * sin(da))

    w0 = sqrt(e)
    w1 = sqrt(1.0 - e)
    # (U1 x U2) applied to sqrt(E)|00> + sqrt(1-E)|11>
    v0 = w0 * u1_00 * u2_00 + w1 * u1_01 * u2_01
    v1 = w0 * u1_00 * u2_10 + w1 * u1_01 * u2_11
    v2 = w0 * u1_10 * u2_00 + w1 * u1_11 * u2_01
    v3 = w0 * u1_10 * u2_10 + w1 * u1_11 * u2_11

    vr = (v0.real, v1.real, v2.real, v3.real)
    vi = (v0.imag, v1.imag, v2.imag, v3.imag)
    acc = 0.0
    for k in range(4):
        rk = vr[k]
        ik = vi[k]
        row = 4 * k
        for l in range(4):
            acc += s[row + l] * (rk * vr[l] + ik * vi[l])
    return acc


def chsh_objective(s, e, x):
    """CHSH expectation <v|S|v>, v = (U1 x U2)(sqrt(E)|00> + sqrt(1-E)|11>).

    s: 16 floats, the real-symmetric CHSH operator row-major.
    x: 6 floats (psi1, phi1, theta1, psi2, phi2, theta2).
    """
    return _objective(tuple(map(float, s)), float(e), tuple(map(float, x)))


def maximize_chsh(s, e, x0, diameter_tol=1e-9, max_iter=5000):
    """Nelder-Mead maximization of chsh_objective from a single start.

    Stops when the max-coordinate diameter of the simplex drops below
    diameter_tol or after max_iter iterations.  Returns
    (best_value, best_params[6], evaluations).
    """
    st = tuple(map(float, s))
    e = float(e)
    n = 6

    def g(pt):  # minimize the negated objective
        return -_objective(st, e, pt)

    verts = [list(map(float, x0))]
    for i in range(n):
        pt = list(verts[0])
        pt[i] += _NM_STEP
        verts.append(pt)
    vals = [g(pt) for pt in verts]
    n_eval = n + 1

    for _ in range(int(max_iter)):
        order = sorted(range(n + 1), key=lambda k: vals[k])
        verts = [verts[k] for k in order]
        vals = [vals[k] for k in order]

        diam = 0.0
        best = verts[0]
        for j in range(1, n + 1):
            for i in range(n):
                d = abs(verts[j][i] - best[i])
                if d > diam:
                    diam = d
        if diam < diameter_tol:
            break

        centroid = [0.0] * n
        for j in range(n):
            for i in range(n):
                centroid[i] += verts[j][i]
        for i in range(n):
            centroid[i] /= n

        worst = verts[n]
        xr = [centroid[i] + _NM_REFLECT * (centroid[i] - worst[i]) for i in range(n)]
        gr = g(xr)
        n_eval += 1

        if vals[0] <= gr < vals[n - 1]:
            verts[n] = xr
            vals[n] = gr
        elif gr < vals[0]:
            xe = [centroid[i] + _NM_EXPAND * (centroid[i] - worst[i]) for i in range(n)]
            ge = g(xe)
            n_eval += 1
            if ge < gr:
                verts[n] = xe
                vals[n] = ge
            else:
                verts[n] = xr
                vals[n] = gr
        else:
            if gr < vals[n]:
                xc = [centroid[i] + _NM_CONTRACT * (xr[i] - centroid[i]) for i in range(n)]
            else:
                xc = [centroid[i] - _NM_CONTRACT * (centroid[i] - worst[i]) for i in range(n)]
            gc = g(xc)
            n_eval += 1
            if gc < min(gr, vals[n]):
                verts[n] = xc
                vals[n] = gc
            else:
                for j in range(1, n + 1):
                    for i in range(n):
                        verts[j][i] = best[i] + _NM_SHRINK * (verts[j][i] - best[i])
                    vals[j] = g(verts[j])
                n_eval += n

    k_best = min(range(n + 1), key=lambda k: vals[k])
    return -vals[k_best], list(verts[k_best]), n_eval


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


def dykstra_feasibility(m, n, x0, tol, max_iter, plateau_window=500, plateau_rtol=1e-12):
    """Cyclic Dykstra projections for the parent-POVM feasibility problem.

    Coordinates are Pauli coordinates of the free effect G; the four PSD
    constraints are G, M-G, N-G and I-M-N+G where m, n are the coordinates
    of the two plus-effects.  Returns (x[4], residual, iterations, plateaued);
    residual is the worst negative-eigenvalue defect over the four blocks.
    """
    m0, m1, m2, m3 = map(float, m)
    n0, n1, n2, n3 = map(float, n)
    c0 = m0 + n0 - 2.0
    c1 = m1 + n1
    c2 = m2 + n2
    c3 = m3 + n3
    x = list(map(float, x0))
    corr = [[0.0, 0.0, 0.0, 0.0] for _ in range(4)]
    hist = [0.0] * plateau_window
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
        slot = it % plateau_window
        if it > plateau_window:
            prev = hist[slot]
            if abs(res - prev) <= plateau_rtol * (res if res > 1e-300 else 1e-300):
                return x, res, it, True
        hist[slot] = res

    return x, res, int(max_iter), False
