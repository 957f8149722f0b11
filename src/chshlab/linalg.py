"""Dense complex linear algebra for small operators.

Everything in the CHSH scenario lives in dimension 2 or 4 (16 at most).
Every spectrum goes through one path, numpy's LAPACK Hermitian solver
(`numpy.linalg.eigh`), after the input is checked for finite entries and
Hermiticity.  numpy arrays are the universal carrier; matrices are
row-major complex.
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


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def hermitize(m) -> np.ndarray:
    """Symmetrize (M + M†)/2, absorbing roundoff asymmetry."""
    a = as_matrix(m)
    return (a + dagger(a)) / 2


def hermiticity_defect(m) -> float:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return float("inf")
    return float(np.max(np.abs(a - dagger(a))))


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = as_matrix(m)
    if not np.isfinite(a).all():
        raise NotHermitianError("matrix has a non-finite entry")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.1e})"
        )
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


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
    exceeds `tol`.
    """
    vals, vecs = np.linalg.eigh(hermitize(require_hermitian(m, tol)))
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def operator_norm(m) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    a = as_matrix(m)
    gram = dagger(a) @ a
    top = eig_hermitian(hermitize(gram)).eigenvalues[-1]
    return float(np.sqrt(max(top, 0.0)))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix (used for PSD checks)."""
    return float(eig_hermitian(m).eigenvalues[0])


def is_psd(m, tol: float = 1e-12) -> bool:
    """PSD within tolerance, after symmetrizing away roundoff."""
    return min_eigenvalue(hermitize(m)) >= -tol
