"""Dense complex linear algebra for small operators.

Everything in the CHSH scenario lives in dimension 2 or 4 (16 at most).
Every spectrum goes through one path, numpy's LAPACK Hermitian solver
(`numpy.linalg.eigh`).  numpy arrays are the universal carrier; matrices
are row-major complex.

Validation happens in one place.  `eig_hermitian` converts its input
once, refuses a non-finite entry before any arithmetic, measures the
Hermiticity defect once against its `tol`, and hands (M + M†)/2 to the
solver.  Callers do not symmetrize first: `is_psd` and `operator_norm`
pass `tol=inf`, so they accept any finite square input and see its
Hermitian part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError

HERMITICITY_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def hermitize(m) -> np.ndarray:
    """Symmetrize (M + M†)/2, absorbing roundoff asymmetry."""
    a = as_matrix(m)
    return (a + a.conj().T) / 2


def _finite_matrix(m) -> np.ndarray:
    a = as_matrix(m)
    if not np.isfinite(a).all():
        raise NotHermitianError("matrix has a non-finite entry")
    return a


def _with_adjoint(m, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, M†) for a finite M whose Hermiticity defect is at most tol.

    A non-square M has defect inf.
    """
    a = _finite_matrix(m)
    adj = a.conj().T
    defect = float(abs(a - adj).max()) if a.shape[0] == a.shape[1] else float("inf")
    if defect > tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.1e})"
        )
    return a, adj


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    return _with_adjoint(m, tol)[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply.  Equal to numpy.kron bit for bit."""
    a = as_matrix(a)
    b = as_matrix(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def comm(a, b) -> np.ndarray:
    """Commutator [a, b] = ab - ba."""
    a = as_matrix(a)
    b = as_matrix(b)
    return a @ b - b @ a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def projector(self, index: int) -> np.ndarray:
        v = self.eigenvectors[:, index].reshape(-1, 1)
        return v @ v.conj().T


def eig_hermitian(m, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Full spectrum of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitianError if an entry is not finite or the asymmetry
    exceeds `tol`.  The spectrum is that of (M + M†)/2.
    """
    a, adj = _with_adjoint(m, tol)
    vals, vecs = np.linalg.eigh((a + adj) / 2)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def operator_norm(m) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    a = _finite_matrix(m)  # before the product, which would warn on inf
    top = eig_hermitian(a.conj().T @ a, np.inf).eigenvalues[-1]
    return float(np.sqrt(max(top, 0.0)))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix (used for PSD checks)."""
    return float(eig_hermitian(m).eigenvalues[0])


def is_psd(m, tol: float = 1e-12) -> bool:
    """The Hermitian part (M + M†)/2 is PSD within tolerance."""
    return bool(eig_hermitian(m, np.inf).eigenvalues[0] >= -tol)
