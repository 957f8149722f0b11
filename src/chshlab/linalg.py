"""Dense complex linear algebra for small operators.

Everything in the CHSH scenario lives in dimension 2 or 4 (16 at most).
Every spectrum goes through one path, `eig_hermitian`, on numpy's LAPACK
Hermitian solvers: `numpy.linalg.eigh` when the caller reads
eigenvectors, `numpy.linalg.eigvalsh` when it asks for eigenvalues only
(`vectors=False`).  `is_psd`, `operator_norm`, `chsh.check_state` and
`chsh.landau_bound` read eigenvalues only; `chsh.max_over_states` takes
the full `eigh` solve.  numpy arrays are the universal carrier;
matrices are row-major complex.

Validation happens in one place, `_with_adjoint`.  `eig_hermitian`
converts its input once and, before any arithmetic, refuses a
non-finite entry and an entry so large that M + M† or |M - M†| would
overflow (one reduction, the largest modulus, finds both).  It refuses a
non-square input at any `tol`, measures the Hermiticity defect once
against a finite `tol`, hands (M + M†)/2 to the solver, and refuses a
spectrum that overflowed.  Callers do not symmetrize or check first:
`hermitize`, `is_psd` and `operator_norm` pass `tol=inf`, so they accept
any bounded square input and see its Hermitian part, and
`chsh.check_state` passes its own tol.

Two constructors write matrices that are Hermitian by construction and
skip `hermitize`: `measurement.bloch_observable`, and
`measurement._from_pauli_coords` behind `from_pauli_coords` and the E+ of
`noisy_pauli_povm`.  Both set the entries (i, j) and (j, i) as complex
conjugates, with real diagonals.  `noisy_pauli_povm` checks only E+
through `is_psd` (its docstring says why); `from_effect` checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import NotHermitianError

HERMITICITY_TOL = 1e-10
# the largest entry modulus for which M + M† and |M - M†| stay finite:
# each of their entries is at most twice it
MAX_ENTRY_MODULUS = np.finfo(float).max / 2

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

    Raises NotHermitianError if M is not square, or an entry is not finite
    or exceeds MAX_ENTRY_MODULUS.
    """
    a, adj = _with_adjoint(m, np.inf)
    return (a + adj) / 2


def _bounded_matrix(m) -> np.ndarray:
    a = as_matrix(m)
    # one reduction refuses NaN, ±inf and overflow alike: abs() of a complex
    # entry does not warn, and max() carries a NaN through; an empty matrix
    # has no maximum
    if a.size and not abs(a).max() <= MAX_ENTRY_MODULUS:
        if not np.isfinite(a).all():
            raise NotHermitianError("matrix has a non-finite entry")
        raise NotHermitianError(
            f"matrix entry of modulus {abs(a).max():.3e} would overflow M + M† "
            f"(limit {MAX_ENTRY_MODULUS:.3e})"
        )
    return a


def _with_adjoint(m, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, M†) for a bounded M whose Hermiticity defect is at most tol.

    A non-square M has defect inf and is refused at every tol, inf included:
    (M + M†)/2 would broadcast a 1×n M to n×n.  So is a 0×0 M, which has
    no spectrum.
    """
    a = _bounded_matrix(m)
    adj = a.conj().T
    if a.shape == (0, 0):
        raise NotHermitianError(f"matrix of shape {a.shape} is empty")
    if a.shape[0] != a.shape[1]:
        defect = float("inf")
    elif tol == np.inf:  # every bounded square M passes: nothing to measure
        return a, adj
    else:
        defect = float(abs(a - adj).max())
        if defect <= tol:
            return a, adj
    raise NotHermitianError(
        f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.1e})", defect
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

    eigenvectors is None for an eigenvalue-only solve
    (`eig_hermitian(..., vectors=False)`), which `is_psd`, `operator_norm`,
    `chsh.check_state` and `chsh.landau_bound` ask for; `projector` needs
    the full solve.
    Compared and hashed by identity: its fields are arrays."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def projector(self, index: int) -> np.ndarray:
        v = self.eigenvectors[:, index].reshape(-1, 1)
        return v @ v.conj().T


def eig_hermitian(m, tol: float = HERMITICITY_TOL, *, vectors: bool = True) -> Spectrum:
    """Spectrum of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitianError if an entry is not finite, an entry's modulus
    exceeds MAX_ENTRY_MODULUS, or the asymmetry exceeds `tol`; that check
    (`_with_adjoint`) is the only validation of the input, so a caller need
    not repeat it.  The spectrum is that of (M + M†)/2: `numpy.linalg.eigh`
    of it, or `numpy.linalg.eigvalsh` with eigenvectors None when `vectors`
    is False.  It too is refused if its lowest or highest eigenvalue
    overflowed, which bounded entries allow and LAPACK does not report.
    """
    a, adj = _with_adjoint(m, tol)
    h = a + adj
    h /= 2
    vals, vecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    if not (isfinite(vals[0]) and isfinite(vals[-1])):
        raise NotHermitianError("matrix spectrum overflows the float range")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def operator_norm(m) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input.

    Validation happens once, on M†M: a non-finite entry of M leaves a
    non-finite entry on its diagonal, and so does an overflow; a finite
    M†M too large to symmetrize is refused as such.
    """
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        gram = a.conj().T @ a
    top = eig_hermitian(gram, np.inf, vectors=False).eigenvalues[-1]
    return float(np.sqrt(max(top, 0.0)))


def is_psd(m, tol: float = 1e-12) -> bool:
    """The Hermitian part (M + M†)/2 is PSD within tolerance."""
    return bool(eig_hermitian(m, np.inf, vectors=False).eigenvalues[0] >= -tol)
