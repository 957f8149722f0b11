"""Dense complex linear algebra for small operators.

Everything in the CHSH scenario lives in dimension 2 or 4 (16 at most).
Every spectrum goes through `eig_hermitian`, which picks its solver from
the input's size.  An eigenvalue-only 2x2 solve (`vectors=False`), which
is every POVM effect's PSD check through `is_psd`, is answered in closed
form from the four entries of the Hermitian part: an effect
(c0·I + c·σ)/2 has the eigenvalues (c0 ± |c|)/2.  Every other solve runs
on numpy's LAPACK Hermitian solvers: `numpy.linalg.eigh` when the caller
reads eigenvectors (`chsh.ChshReport.optimal_state`, on its first read),
`numpy.linalg.eigvalsh` when it asks for eigenvalues only
(`chsh.check_state`'s 4x4 state, and `chsh.max_over_states` for a
biased setting).  Δ, Landau's μ and the maximum over states of an
unbiased setting need no solve: `measurement.incompatibility_degree`
and `chsh.max_over_states` have them in closed form.  numpy arrays are
the universal carrier; matrices are row-major complex.

Validation is one set of checks, run before any arithmetic: a
non-finite entry, an entry so large that M + M† or |M - M†| would
overflow, a non-square input, and a Hermiticity defect above
HERMITICITY_TOL, the one tolerance; then a spectrum that overflowed.
`eig_hermitian` converts its input once and picks where the checks run
by its size.  An eigenvalue-only 2x2 solve reads its four entries once,
and `_checked_2x2` runs the checks on them, with `_hermitian_part`'s
order, exceptions, messages and defect, before the closed form reads
the same entries.  Every other solve goes through `_hermitian_part`,
which finds a non-finite or oversized entry in one numpy reduction (the
largest modulus) and hands (M + M†)/2 to LAPACK.  The split is by size:
on four entries a check in Python scalars costs about a third of numpy's
fixed per-call cost, and on sixteen it costs as much or more.  Callers
do not symmetrize or check first.  `measurement.ChshSetting` and
`measurement.BinaryPovm.from_effect` keep the Hermitian part of what
they checked, so S, J and every effect are Hermitian bit for bit.

Two constructors write matrices that are Hermitian by construction and
are not read back: `measurement.bloch_observable`, and
`measurement._pauli_entries` behind `from_pauli_coords` and the E+ of
`noisy_pauli_povm`.  Both set the entries (i, j) and (j, i) as complex
conjugates, with real diagonals.  `noisy_pauli_povm` checks only E+
through `is_psd` (its docstring says why), and reads its coords off the
entries it wrote; `from_effect` checks both effects.

Numeric input has one policy, kept here: str, bytes and bool are never
numbers, though numpy parses "1" and reads True as 1.  Every array of
numbers is read by `_numbers`, every scalar by `_is_number`'s rule.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from math import hypot
from operator import index

import numpy as np

from .errors import NotHermitianError, OutOfRangeError

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-12  # is_psd accepts a lowest eigenvalue down to -PSD_TOL
# the largest entry modulus for which M + M† and |M - M†| stay finite:
# each of their entries is at most twice it; a Python float, as
# _checked_2x2 compares it with Python floats
MAX_ENTRY_MODULUS = float(np.finfo(float).max) / 2

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_REAL_TYPES = (float, int, np.floating, np.integer)
_COMPLEX_TYPES = (*_REAL_TYPES, complex, np.complexfloating)
_BOOLS = (bool, np.bool_)
_FLOAT = np.dtype(float)
_COMPLEX = np.dtype(complex)
_PLAIN_TYPES = frozenset((float, int, np.float64))  # a flat sequence of these needs no element scan


def _is_number(x, types=_REAL_TYPES) -> bool:
    """The scalar rule: x is an instance of `types`, and not a bool."""
    return isinstance(x, types) and not isinstance(x, _BOOLS)


def _real(name: str, value):
    """value itself if it is a real scalar, else OutOfRangeError: read before any
    range check, which would leak TypeError for a string or None, ValueError for an array."""
    if _is_number(value):
        return value
    raise OutOfRangeError(f"{name} must be a real number, got {value!r}")


def _integer(name: str, value) -> int:
    """value as an int if `operator.index` takes it (no float) and it is not a bool, else OutOfRangeError."""
    try:
        if not isinstance(value, _BOOLS):
            return index(value)
    except TypeError:
        pass
    raise OutOfRangeError(f"{name} must be an integer, got {value!r}")


def _numbers(x, complex_ok: bool = False) -> np.ndarray:
    """x as a float64 ndarray, or complex128 if complex_ok (x itself if it
    is one already), or TypeError unless x holds only numbers: its dtype
    kind is f, i, u (c if complex_ok) or O and, unless x is a numeric
    ndarray, each element passes `_is_number`, as numpy reads
    [[1, 0], [0, True]] as int64.  Ragged input and ints past float range fail."""
    target = _COMPLEX if complex_ok else _FLOAT
    if type(x) is np.ndarray and x.dtype is target:
        return x
    try:
        a = np.asarray(x)
        if not (type(x) in (list, tuple) and _PLAIN_TYPES.issuperset(map(type, x))):
            kind = a.dtype.kind
            if kind not in ("fiucO" if complex_ok else "fiuO"):
                raise TypeError
            if kind == "O" or not isinstance(x, np.ndarray):
                types = _COMPLEX_TYPES if complex_ok else _REAL_TYPES
                if not all(_is_number(e, types) for e in np.asarray(x, dtype=object).flat):
                    raise TypeError
        return a if a.dtype is target else a.astype(target)
    except (ValueError, OverflowError):  # ragged; an int past the float range
        raise TypeError from None


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray of numbers (`_numbers`), or raise NotHermitianError."""
    try:
        a = _numbers(m, complex_ok=True)
    except TypeError:
        raise NotHermitianError(f"expected a 2-D matrix of numbers, got {type(m).__name__}") from None
    if a.ndim != 2:
        raise NotHermitianError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _hermitian_part(m) -> np.ndarray:
    """(M + M†)/2 for a bounded M whose Hermiticity defect is at most HERMITICITY_TOL.

    M is read by `as_matrix`.  One reduction, the largest entry modulus,
    refuses NaN, ±inf and an entry past MAX_ENTRY_MODULUS alike: abs() of
    a complex entry does not warn, and max() carries a NaN through.  A
    non-square M has defect inf, and a 0×0 M, which has no spectrum and
    no maximum, is refused too.
    """
    a = as_matrix(m)
    if a.size and not abs(a).max() <= MAX_ENTRY_MODULUS:
        if not np.isfinite(a).all():
            raise NotHermitianError("matrix has a non-finite entry")
        raise NotHermitianError(
            f"matrix entry of modulus {abs(a).max():.3e} would overflow M + M† "
            f"(limit {MAX_ENTRY_MODULUS:.3e})"
        )
    if a.shape == (0, 0):
        raise NotHermitianError(f"matrix of shape {a.shape} is empty")
    defect = float("inf")
    if a.shape[0] == a.shape[1]:
        adj = a.conj().T
        defect = float(abs(a - adj).max())
        if defect <= HERMITICITY_TOL:
            return (a + adj) / 2
    raise NotHermitianError(
        f"matrix deviates from Hermitian by {defect:.3e} (tol {HERMITICITY_TOL:.1e})", defect
    )


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply.  Equal to numpy.kron bit for bit."""
    a = as_matrix(a)
    b = as_matrix(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted ascending with matching orthonormal columns.

    eigenvectors is None for an eigenvalue-only solve
    (`eig_hermitian(..., vectors=False)`), which `is_psd` and
    `chsh.check_state` ask for; `projector` needs the full solve.
    Compared and hashed by identity: its fields are arrays."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def projector(self, index: int) -> np.ndarray:
        """|v><v| for the eigenvector of eigenvalues[index]; a negative
        index counts from the top, as in a sequence.

        Raises OutOfRangeError for an eigenvalue-only spectrum, an index
        that is not an integer (a bool included), and one past the
        spectrum.
        """
        if self.eigenvectors is None:
            raise OutOfRangeError("an eigenvalue-only spectrum (vectors=False) has no projectors")
        n = len(self.eigenvalues)
        if not _is_number(index, (int, np.integer)):
            raise OutOfRangeError(f"eigenvalue index must be an integer, got {index!r}")
        if not -n <= index < n:
            raise OutOfRangeError(f"eigenvalue index {index} outside the spectrum of {n}")
        v = self.eigenvectors[:, index].reshape(-1, 1)
        return v @ v.conj().T


def eig_hermitian(m, *, vectors: bool = True) -> Spectrum:
    """Spectrum of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitianError if an entry is not finite, an entry's modulus
    exceeds MAX_ENTRY_MODULUS, or the asymmetry exceeds HERMITICITY_TOL; that check
    is the only validation of the input, so a caller need not repeat it.
    The spectrum is that of (M + M†)/2.  An eigenvalue-only solve
    (`vectors` False, eigenvectors None) of a 2x2 reads the four entries
    once, and `_checked_2x2` and `_eigvalsh_2x2` both work from them.
    Every other solve is checked by `_hermitian_part`, with the same
    exceptions, messages and defect, and runs `numpy.linalg.eigh`, or
    `numpy.linalg.eigvalsh` for eigenvalues only.  The spectrum too is
    refused if its lowest or highest eigenvalue overflowed, which bounded
    entries allow beyond 2x2 and LAPACK does not report.
    """
    a = as_matrix(m)
    if not vectors and a.shape == (2, 2):
        vals, vecs = np.array(_eigvalsh_2x2(_checked_2x2(a.tolist()))), None
    else:
        h = _hermitian_part(a)
        vals, vecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    if not (isfinite(vals[0]) and isfinite(vals[-1])):
        raise NotHermitianError("matrix spectrum overflows the float range")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def _checked_2x2(entries: list, subject: str = "matrix") -> list:
    """The entries [[p, q], [r, s]] of a 2x2 M, as Python numbers, once
    they pass `_hermitian_part`'s checks, in its order and with its
    messages: every entry finite, every modulus at most MAX_ENTRY_MODULUS
    and the Hermiticity defect at most HERMITICITY_TOL.  Each
    message names `subject`: "matrix", as `_hermitian_part`'s do, or
    "observable a0" for `measurement.ChshSetting`.

    The defect is the largest entry modulus of M - M†:
    max(|2 Im p|, |2 Im s|, |q - r̄|), as M - M† has 2i·Im p and 2i·Im s
    on its diagonal and q - r̄ and its negated conjugate off it.  A
    modulus that decides a verdict or is reported is numpy's, as
    `_hermitian_part` reads it: numpy's complex abs and the C hypot behind
    abs() differ in the last ulp for a few inputs in a hundred.  An exact
    q - r̄ = 0, as every matrix Hermitian by construction has, reads as
    0.0 without a call into numpy.  abs() serves as a screen: every
    modulus up to MAX_ENTRY_MODULUS/2 passes, whatever its last ulp.
    """
    (p, q), (r, s) = entries
    if not (isfinite(p) and isfinite(q) and isfinite(r) and isfinite(s)):
        raise NotHermitianError(f"{subject} has a non-finite entry")
    try:
        largest = max(abs(p), abs(q), abs(r), abs(s))
    except OverflowError:  # a modulus past float max, from finite parts
        largest = float("inf")
    if largest > MAX_ENTRY_MODULUS / 2:
        largest = float(abs(np.array(entries)).max())
        if largest > MAX_ENTRY_MODULUS:
            raise NotHermitianError(
                f"{subject} entry of modulus {largest:.3e} would overflow M + M† "
                f"(limit {MAX_ENTRY_MODULUS:.3e})"
            )
    # 2|Im p| is exact in either reading, and cannot overflow for a
    # bounded p
    d = q - r.conjugate()
    defect = max(abs(2.0 * p.imag), abs(2.0 * s.imag), float(np.abs(d)) if d else 0.0)
    if not defect <= HERMITICITY_TOL:
        raise NotHermitianError(
            f"{subject} deviates from Hermitian by {defect:.3e} (tol {HERMITICITY_TOL:.1e})", defect
        )
    return entries


def _eigvalsh_2x2(entries: list) -> list:
    """Eigenvalues [lo, hi], ascending, of the Hermitian part
    [[p, z], [z̄, s]] of a bounded 2x2 M, as Python floats, from its
    entries [[p, q], [r, s]] as Python numbers.

    They are min(p, s) - t and max(p, s) + t with t = hypot(d, |z|) - d,
    d = |p - s|/2, written as |z|²/(hypot(d, |z|) + d) so that nothing
    cancels: a diagonal M comes back exactly, and both agree with
    numpy.linalg.eigvalsh within a few ulps of the larger modulus.  |z|
    comes from hypot, as abs() of a complex raises OverflowError past
    float max, and every term is halved once more than the formula needs,
    which is exact above the subnormal range, so that no sum overflows at
    MAX_ENTRY_MODULUS.  Nor can the result: a 2x2's norm is at most twice
    its largest entry modulus.
    """
    (p, q), (r, s) = entries
    lo, hi = (p.real, s.real) if p.real <= s.real else (s.real, p.real)
    # z = (q + r̄)/2, as (M + M†)/2 has it; y = |z|/2
    y = hypot((q.real + r.real) / 4, (q.imag - r.imag) / 4)
    if y == 0.0:
        return [lo, hi]
    x = (hi - lo) / 4
    t = 2.0 * y * (y / (hypot(x, y) + x))
    return [lo - t, hi + t]


def is_psd(m) -> bool:
    """M, refused as `eig_hermitian` refuses it, is PSD within PSD_TOL: its
    lowest eigenvalue, from an eigenvalue-only solve (in closed form for a
    2x2 such as a POVM effect), is at least -PSD_TOL."""
    return bool(eig_hermitian(m, vectors=False).eigenvalues[0] >= -PSD_TOL)
