"""Dense complex linear algebra for small operators.

Everything in the CHSH scenario lives in dimension 2 or 4 (16 at most).
Every spectrum goes through one path, numpy's LAPACK Hermitian solver
(`numpy.linalg.eigh`).  numpy arrays are the universal carrier; matrices
are row-major complex.

Validation happens in one place, `_with_adjoint`.  `eig_hermitian`
converts its input once, refuses a non-finite entry before any
arithmetic and a non-square one at any `tol`, measures the Hermiticity
defect once against a finite `tol`, and hands (M + M†)/2 to the solver.
Callers do not symmetrize first: `hermitize`, `is_psd` and
`operator_norm` pass `tol=inf`, so they accept any finite square input
and see its Hermitian part.

Some constructors write matrices that are Hermitian by construction and
skip `hermitize`: `measurement.bloch_observable`, `from_pauli_coords` and
`noisy_pauli_povm` set the entries (i, j) and (j, i) as complex
conjugates, with real diagonals.  The effects of `noisy_pauli_povm`
still pass both PSD checks through `is_psd`.
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
    """Symmetrize (M + M†)/2, absorbing roundoff asymmetry.

    Raises NotHermitianError if M is not square or an entry is not finite.
    """
    a, adj = _with_adjoint(m, np.inf)
    return (a + adj) / 2


def _finite_matrix(m) -> np.ndarray:
    a = as_matrix(m)
    # min() over the flags: .all() costs twice as much on a small matrix,
    # and an empty one has no minimum
    if a.size and not np.isfinite(a).min():
        raise NotHermitianError("matrix has a non-finite entry")
    return a


def _with_adjoint(m, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, M†) for a finite M whose Hermiticity defect is at most tol.

    A non-square M has defect inf and is refused at every tol, inf included:
    (M + M†)/2 would broadcast a 1×n M to n×n.  So is a 0×0 M, which has
    no spectrum.
    """
    a = _finite_matrix(m)
    adj = a.conj().T
    if a.shape == (0, 0):
        raise NotHermitianError(f"matrix of shape {a.shape} is empty")
    if a.shape[0] != a.shape[1]:
        defect = float("inf")
    elif tol == np.inf:  # every finite square M passes: nothing to measure
        return a, adj
    else:
        defect = float(abs(a - adj).max())
        if defect <= tol:
            return a, adj
    raise NotHermitianError(
        f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.1e})"
    )


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted ascending with matching orthonormal columns.
    Compared and hashed by identity: its fields are arrays."""

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
    h = a + adj
    h /= 2
    vals, vecs = np.linalg.eigh(h)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def operator_norm(m) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input.

    Finiteness is checked once, on M†M: a non-finite entry of M leaves a
    non-finite entry on its diagonal, and so does an overflow.
    """
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        gram = a.conj().T @ a
    top = eig_hermitian(gram, np.inf).eigenvalues[-1]
    return float(np.sqrt(max(top, 0.0)))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix (used for PSD checks)."""
    return float(eig_hermitian(m).eigenvalues[0])


def is_psd(m, tol: float = 1e-12) -> bool:
    """The Hermitian part (M + M†)/2 is PSD within tolerance."""
    return bool(eig_hermitian(m, np.inf).eigenvalues[0] >= -tol)
