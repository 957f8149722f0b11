"""Backend parity: the compiled core must reproduce the pure fallback."""

import re
from pathlib import Path

import numpy as np
import pytest

import chshlab
from chshlab import _kernels
from chshlab._kernels import _pure as pure
from chshlab.chsh import chsh_operator
from chshlab.entanglement import (
    CanonicalAngles,
    UnitaryParams,
    canonical_setting,
    rotated_chsh,
)

try:
    from chshlab._kernels import _fast as fast
except ImportError:
    fast = None

needs_compiled = pytest.mark.skipif(fast is None, reason="compiled extension not built")


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
    assert _kernels.BACKEND in ("python", "compiled")


def test_backend_matches_kernels():
    assert chshlab.BACKEND == _kernels.BACKEND
    compiled = _kernels.maximize_chsh.__module__.endswith("_fast")
    assert compiled == (_kernels.BACKEND == "compiled")


def test_pure_objective_matches_dense_route(rng):
    # kernel vs the straightforward numpy computation
    for _ in range(50):
        s, e, x, theta, phi = _random_case(rng)
        got = pure.chsh_objective(s, e, x)
        want = rotated_chsh(
            e,
            CanonicalAngles(theta=theta, phi=phi),
            UnitaryParams(*x[:3]),
            UnitaryParams(*x[3:]),
        )
        assert got == pytest.approx(want, abs=1e-10)


@needs_compiled
def test_objective_parity(rng):
    for _ in range(500):
        s, e, x, *_ = _random_case(rng)
        assert fast.chsh_objective(s, e, x) == pytest.approx(
            pure.chsh_objective(s, e, x), abs=1e-12
        )


@needs_compiled
def test_maximize_parity(rng):
    # objective values occasionally differ by 1-2 ulp between backends,
    # which can flip a simplex branch at a near-tie; converged values must
    # still agree even when the paths do not
    for _ in range(25):
        s, e, x, *_ = _random_case(rng)
        vp, xp, _ = pure.maximize_chsh(s, e, x)
        vf, xf, _ = fast.maximize_chsh(s, e, x)
        assert vf == pytest.approx(vp, abs=1e-9)
        assert fast.chsh_objective(s, e, xf) == pytest.approx(vf, abs=1e-12)
        assert pure.chsh_objective(s, e, xp) == pytest.approx(vp, abs=1e-12)


@needs_compiled
def test_dykstra_parity(rng):
    for _ in range(50):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        lam = float(rng.uniform(0, 1))
        m = np.array([1.0, *(lam * axes[0])])
        n = np.array([1.0, *(lam * axes[1])])
        x0 = (m + n) / 2 - np.array([0.5, 0.0, 0.0, 0.0])
        rp = pure.dykstra_feasibility(m, n, x0, 1e-9, 50_000)
        rf = fast.dykstra_feasibility(m, n, x0, 1e-9, 50_000)
        assert rf[1] == pytest.approx(rp[1], abs=1e-12)  # residual
        assert rf[2] == rp[2]  # iterations
        assert rf[3] == rp[3]  # plateau flag
        assert np.allclose(rf[0], rp[0], atol=1e-10)


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


def test_generated_c_quotes_current_pyx():
    # Cython quotes every source line it compiles in _fast.c, marked with
    # "# <<<<<<<<<<<<<<" under a '/* "<file>.pyx":<line>' header; a .pyx edited
    # without regenerating the .c leaves a stale quote
    kernels = Path(__file__).resolve().parents[1] / "src" / "chshlab" / "_kernels"
    pyx = (kernels / "_fast.pyx").read_text(encoding="utf-8").splitlines()
    header = re.compile(r'/\* "chshlab/_kernels/_fast\.pyx":(\d+)$')
    marker = "             # <<<<<<<<<<<<<<"
    line = None
    quoted = 0
    for text in (kernels / "_fast.c").read_text(encoding="utf-8").splitlines():
        found = header.search(text)
        if found:
            line = int(found.group(1))
        elif text.endswith(marker):
            assert line is not None
            assert text.removeprefix(" * ").removesuffix(marker) == pyx[line - 1], line
            quoted += 1
    assert quoted > 0
