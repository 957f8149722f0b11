"""Kronecker products, the LAPACK-backed eigensolver and operator norms.

eig_hermitian wraps numpy.linalg.eigh, so comparing it with
numpy.linalg.eigvalsh checks the wrapper (validation, hermitizing,
ascending order); the eigenpair-residual and reconstruction tests check
the eigenvectors without any solver.
"""

import numpy as np
import pytest

from chshlab.linalg import (
    I2,
    SX,
    SY,
    SZ,
    eig_hermitian,
    hermitize,
    is_psd,
    kron,
    min_eigenvalue,
    operator_norm,
)
from chshlab.errors import NotHermitianError

from conftest import random_hermitian

B0 = (SZ + SX) / np.sqrt(2)
B1 = (SZ - SX) / np.sqrt(2)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_sigma_y_pair(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = -1
        expected[1, 2] = 1
        expected[2, 1] = 1
        expected[3, 0] = -1
        assert np.allclose(kron(SY, SY), expected)

    def test_mixed_product_rule(self, rng):
        for _ in range(25):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            assert np.max(np.abs(left - right)) <= 1e-10

    def test_trace_multiplicativity(self, rng):
        for _ in range(25):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10


class TestEigHermitian:
    def test_pauli_spectrum(self):
        spec = eig_hermitian(SZ)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_product_spectrum(self):
        spec = eig_hermitian(kron(SY, SY))
        assert np.allclose(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])

    def test_chsh_operator_spectrum(self):
        s = kron(SZ, B0 + B1) + kron(SX, B0 - B1)
        expected = np.linalg.eigvalsh(s)  # brute-force oracle
        spec = eig_hermitian(s)
        assert np.max(np.abs(spec.eigenvalues - expected)) <= 1e-9
        r = 2 * np.sqrt(2)
        assert np.allclose(spec.eigenvalues, [-r, 0.0, 0.0, r], atol=1e-9)

    def test_matches_numpy_on_random_sizes(self, rng):
        for n in range(2, 17):
            h = random_hermitian(rng, n)
            spec = eig_hermitian(h)
            assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-9

    def test_eigenpair_residuals(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            res = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-9

    def test_reconstruction(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - h)) <= 1e-9

    def test_trace_matches_eigenvalue_sum(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            spec = eig_hermitian(h)
            assert abs(spec.eigenvalues.sum() - np.trace(h).real) <= 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # eigh would return NaN eigenvalues without complaint
        m = SZ.copy()
        m[0, 0] = bad
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)

    def test_tolerates_roundoff_asymmetry(self):
        m = SZ.copy()
        m[0, 1] = 1e-12
        spec = eig_hermitian(m)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-10)


class TestOperatorNorm:
    def test_pauli(self):
        assert operator_norm(SZ) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0

    def test_quarter_commutator_tensor(self):
        # 1/4 [sz, sx] x [B0, B1] has unit norm (it equals sy x sy up to sign)
        j = 0.25 * kron(SZ @ SX - SX @ SZ, B0 @ B1 - B1 @ B0)
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(j))))
        assert operator_norm(j) == pytest.approx(oracle, abs=1e-10)
        assert operator_norm(j) == pytest.approx(1.0, abs=1e-10)

    def test_hermitian_norm_is_max_abs_eigenvalue(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 9)))
            oracle = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            assert abs(operator_norm(h) - oracle) <= 1e-10

    def test_non_hermitian_singular_value(self, rng):
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert abs(operator_norm(m) - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-10


def test_psd_helpers(rng):
    assert is_psd(I2)
    assert not is_psd(-I2)
    assert min_eigenvalue(SZ) == pytest.approx(-1.0, abs=1e-12)
    m = rng.normal(size=(2, 2))
    sym = hermitize(m)
    assert np.max(np.abs(sym - sym.conj().T)) == 0.0
