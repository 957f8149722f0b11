"""Kronecker products, the LAPACK-backed eigensolver and operator norms.

eig_hermitian wraps numpy.linalg.eigh, so comparing it with
numpy.linalg.eigvalsh checks the wrapper (validation, hermitizing,
ascending order); the eigenpair-residual and reconstruction tests check
the eigenvectors without any solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab.linalg import (
    HERMITICITY_TOL,
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
from chshlab.errors import ChshLabError, NotHermitianError
from chshlab.measurement import BinaryPovm

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


# ------------------------------------------------- the lean path pinned to numpy

_entry = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _complex_matrix(draw, rows, cols):
    n, m = draw(rows), draw(cols)
    re = draw(st.lists(_entry, min_size=n * m, max_size=n * m))
    im = draw(st.lists(_entry, min_size=n * m, max_size=n * m))
    return (np.array(re) + 1j * np.array(im)).reshape(n, m)


@st.composite
def _near_hermitian(draw):
    """A Hermitian matrix plus an asymmetry inside HERMITICITY_TOL."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(rng, n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    noise = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return h + (HERMITICITY_TOL / 4) * noise


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeanPathMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(
        _complex_matrix(st.integers(1, 4), st.integers(1, 4)),
        _complex_matrix(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_kron_is_numpy_kron(self, a, b):
        assert _same_bits(kron(a, b), np.kron(a, b))

    @settings(max_examples=200, deadline=None)
    @given(_near_hermitian())
    def test_eig_hermitian_is_eigh_of_hermitian_part(self, m):
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        spec = eig_hermitian(m)
        assert _same_bits(spec.eigenvalues, vals)
        assert _same_bits(spec.eigenvectors, vecs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: _complex_matrix(st.just(n), st.just(n))),
        st.sampled_from([0.0, 1e-12, 1e-3]),
    )
    def test_is_psd_reads_hermitian_part(self, m, tol):
        # any finite square matrix is accepted, however far from Hermitian
        low = np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
        assert is_psd(m, tol) == bool(low >= -tol)


class TestErrorParity:
    """Each refusal keeps its exception class and message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1), (1, 0)])
    @pytest.mark.parametrize("fn", [eig_hermitian, is_psd, operator_norm])
    def test_non_finite_entry(self, fn, where, bad):
        # refused before any arithmetic, so numpy has no inf to warn about
        # (warnings are errors in this suite)
        m = SZ.copy()
        m[where] = bad
        with pytest.raises(NotHermitianError) as exc:
            fn(m)
        assert str(exc.value) == "matrix has a non-finite entry"

    def test_operator_norm_gram_overflow(self):
        # M is finite but M†M is not: refused like a non-finite entry, where
        # numpy used to warn "overflow encountered in matmul" first
        with pytest.raises(NotHermitianError) as exc:
            operator_norm(np.full((2, 2), 1e200))
        assert str(exc.value) == "matrix has a non-finite entry"

    def test_non_square(self):
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(np.zeros((2, 3)))
        assert str(exc.value) == "matrix deviates from Hermitian by inf (tol 1.0e-10)"

    @pytest.mark.parametrize("shape", [(1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize(
        "fn",
        [hermitize, is_psd, eig_hermitian, lambda m: eig_hermitian(m, np.inf), BinaryPovm.from_effect],
        ids=["hermitize", "is_psd", "eig_hermitian", "eig_hermitian-tol-inf", "from_effect"],
    )
    def test_non_square_any_tol(self, fn, shape):
        # at tol=inf, (M + M†)/2 would broadcast a 1×n M to n×n
        with pytest.raises(NotHermitianError) as exc:
            fn(np.zeros(shape))
        assert str(exc.value).startswith("matrix deviates from Hermitian by inf (tol ")

    @pytest.mark.parametrize("fn", [hermitize, is_psd, eig_hermitian, operator_norm, BinaryPovm.from_effect])
    def test_empty_matrix(self, fn):
        with pytest.raises(NotHermitianError) as exc:
            fn(np.zeros((0, 0)))
        assert str(exc.value) == "matrix of shape (0, 0) is empty"

    @pytest.mark.parametrize("m", [np.eye(3) / 2, np.eye(4) / 2, np.array([[0.5]])], ids=["3x3", "4x4", "1x1"])
    def test_effect_of_wrong_size(self, m):
        with pytest.raises(NotHermitianError) as exc:
            BinaryPovm.from_effect(m)
        assert str(exc.value) == f"qubit POVM effect must be 2x2, got shape {m.shape}"
        assert isinstance(exc.value, ChshLabError) and isinstance(exc.value, ValueError)

    def test_not_a_matrix(self):
        for fn in (eig_hermitian, is_psd, operator_norm, lambda m: kron(m, I2)):
            with pytest.raises(ValueError) as exc:
                fn(np.zeros(3))
            assert str(exc.value) == "expected a 2-D matrix, got shape (3,)"

    def test_asymmetry_above_tol(self):
        m = SZ.copy()
        m[0, 1] = 1e-9
        with pytest.raises(NotHermitianError) as exc:
            eig_hermitian(m)
        assert str(exc.value) == "matrix deviates from Hermitian by 1.000e-09 (tol 1.0e-10)"
        # the callers read the Hermitian part instead of refusing
        assert is_psd(m) is False
        assert operator_norm(m) == pytest.approx(1.0, abs=1e-9)
