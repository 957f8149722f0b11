"""Qubit observables, binary POVMs and the degree of measurement incompatibility."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot, sqrt

import numpy as np

from .errors import NonUnitAxisError, NotHermitianError, OutOfRangeError
from .linalg import I2, PSD_TOL, _checked_2x2, _eigvalsh_2x2, _hermitian_part, _numbers, _real
from .linalg import as_matrix, is_psd, kron

UNIT_AXIS_TOL = 1e-9
# unit_axis lets |n| reach 1 + UNIT_AXIS_TOL; twice that leaves room for
# the roundoff of reading |n| back from the entries of n·σ
OBSERVABLE_NORM_TOL = 2 * UNIT_AXIS_TOL
_BELOW_PSD_TOL = f"POVM effect has an eigenvalue below -{PSD_TOL:g}"
OBSERVABLE_NAMES = ("a0", "a1", "b0", "b1")

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def unit_axis(v) -> np.ndarray:
    """Validate a Bloch direction: three reals of unit Euclidean norm.

    Only real numbers are read (`linalg._numbers`): complex (even with a
    zero imaginary part), str, bytes and bools are refused, and so is
    anything whose shape is not (3,), whatever its container: [[0, 0, 1]]
    and an ndarray of shape (1, 3) alike.
    """
    try:
        a = _numbers(v)
    except TypeError:
        a = None
    if a is None or a.shape != (3,):
        raise NonUnitAxisError(f"axis {v!r} is not three real numbers")
    norm = sqrt(a.dot(a))  # numpy.linalg.norm of a real vector, bit for bit
    if not abs(norm - 1.0) <= UNIT_AXIS_TOL:  # a NaN norm fails this too
        raise NonUnitAxisError(f"axis norm {norm!r} deviates from 1 beyond {UNIT_AXIS_TOL:.0e}")
    return a


def bloch_observable(axis) -> np.ndarray:
    """n·σ for a unit Bloch vector n: Hermitian, traceless, eigenvalues ±1.

    Written entry by entry.  The products n_k·0 that the sum
    n0·σx + n1·σy + n2·σz adds to each entry are kept, so every entry
    equals that sum's bit for bit, signed zeros included.
    """
    n0, n1, n2 = unit_axis(axis).tolist()
    z0, z1, z2 = n0 * 0.0, n1 * 0.0, n2 * 0.0
    return np.array(
        [
            [complex(z0 + z1 + n2, 0.0), complex(n0 + 0.0 + z2, 0.0 - n1)],
            [complex(n0 + z1 + z2, 0.0 + n1), complex(z0 + z1 - n2, 0.0)],
        ]
    )


def pauli_coords(m) -> np.ndarray:
    """Real coordinates (tr M, tr Mσx, tr Mσy, tr Mσz) of a 2x2 Hermitian M.

    The inverse is from_pauli_coords; M = (c0·I + c1·σx + c2·σy + c3·σz)/2.
    Read off the four entries; this equals the traces bit for bit, up to
    the sign of a zero coordinate.  Anything but a 2x2 matrix of numbers
    (`linalg.as_matrix`) is refused with NotHermitianError.
    """
    a = as_matrix(m)
    if a.shape != (2, 2):
        raise NotHermitianError(f"expected a 2x2 matrix, got shape {a.shape}")
    return np.array(_entry_coords(a.tolist()))


def _entry_coords(entries: list) -> list:
    """pauli_coords of a 2x2 given as nested lists: its Hermitian part's."""
    (p, q), (r, s) = entries
    return [p.real + s.real, q.real + r.real, r.imag - q.imag, p.real - s.real]


def _pauli_entries(c0: float, c1: float, c2: float, c3: float) -> list:
    """The entries of (c0·I + c1·σx + c2·σy + c3·σz)/2 as nested lists,
    written entry by entry.

    As an array, equal to that sum bit for bit when c0 > 0 and no half
    c_k/2 is subnormal; when c0 <= 0, up to the sign of a zero entry.
    Each coordinate is halved before any sum, which is exact above the
    subnormal range, so four finite coordinates give finite entries even
    where c0 + c3 overflows.  A subnormal half is rounded before the sum:
    [5e-324, 0, 0, 5e-324] writes 0 where (c0 + c3)/2 is 5e-324.
    """
    h0, h1, h2, h3 = c0 / 2, c1 / 2, c2 / 2, c3 / 2
    return [
        [complex(h0 + h3, 0.0), complex(0.0 + h1, 0.0 - h2)],
        [complex(0.0 + h1, 0.0 + h2), complex(h0 - h3, 0.0)],
    ]


def from_pauli_coords(c) -> np.ndarray:
    """(c0·I + c·σ)/2 for c a 1-D array of four finite real numbers
    (`linalg._numbers`), or NotHermitianError; see _pauli_entries."""
    try:
        a = _numbers(c)
    except TypeError:
        a = None
    if a is None or a.shape != (4,) or not np.isfinite(a).all():
        raise NotHermitianError(f"Pauli coordinates {c!r} are not four finite real numbers")
    return np.array(_pauli_entries(*a.tolist()))


@dataclass(frozen=True, eq=False)
class BinaryPovm:
    """Two-effect qubit POVM {E+, E- = I - E+}.

    coords are the Pauli coordinates (c0, c1, c2, c3) of E+, so
    E+ = (c0·I + c·σ)/2.  sharpness is the noise parameter of noisy-Pauli
    POVMs, None for anything else.  Instances compare and hash by
    identity: their fields are arrays.
    """

    effect_plus: np.ndarray
    effect_minus: np.ndarray
    coords: np.ndarray
    sharpness: float | None = None

    @classmethod
    def from_effect(cls, effect_plus) -> "BinaryPovm":
        """{E+, I - E+} for a 2x2 effect 0 ≤ E+ ≤ I, read once, as `eig_hermitian`
        reads it (`linalg._hermitian_part`), and kept as (M + M†)/2."""
        e_plus = _hermitian_part(effect_plus)
        if e_plus.shape != (2, 2):
            raise NotHermitianError(f"qubit POVM effect must be 2x2, got shape {e_plus.shape}")
        # both effects: a biased E+ (tr ≠ 1) and I - E+ have different spectra
        e_minus = I2 - e_plus
        for eff in (e_plus, e_minus):
            if not is_psd(eff):
                raise OutOfRangeError(_BELOW_PSD_TOL)
        return cls(effect_plus=e_plus, effect_minus=e_minus, coords=pauli_coords(e_plus))

    @property
    def bias(self) -> float:
        """tr(E+) - 1, zero for the unbiased family."""
        return float(self.coords[0] - 1.0)

    def observable(self) -> np.ndarray:
        """Dichotomic observable E+ - E- = 2E+ - I, written from its coords
        (2c0 - 2, 2c), so the c0 = 1 of a noisy-Pauli E+ gives exactly 0."""
        c0, c1, c2, c3 = self.coords.tolist()
        return np.array(_pauli_entries(2.0 * c0 - 2.0, 2.0 * c1, 2.0 * c2, 2.0 * c3))


def noisy_pauli_povm(axis, lam: float) -> BinaryPovm:
    """Noisy Pauli POVM with effects (I ± λ n·σ)/2.

    E+ is from_pauli_coords((1, λn)), written entry by entry and Hermitian
    by construction, so it skips from_effect's read.  Each entry equals
    the one from_effect((I + λ·bloch_observable(n))/2) keeps, bit for
    bit; only where λn_k/2 underflows to zero may the sign of that zero
    differ.  coords come from the entries as written, before they become
    an array, and equal pauli_coords(E+) bit for bit: E+ is not read back.

    Only E+ goes through the PSD check, which reads its four entries once
    (`linalg.eig_hermitian`'s 2x2 branch).  tr E+ = 1, so E- = I - E+ has the
    eigenvalues 1 - (1 ± λ|n|)/2 = (1 ∓ λ|n|)/2 of E+, and E- ≥ 0 ⇔ E+ ≥ 0
    (Busch, Phys. Rev. D 33, 2253 (1986)).  The check refuses only a
    λ|n| above 1 + 2e-12, which unit_axis's tolerance lets through near
    λ = 1.
    """
    if not 0.0 <= _real("sharpness λ", lam) <= 1.0:
        raise OutOfRangeError(f"sharpness λ={lam!r} outside [0, 1]")
    n0, n1, n2 = unit_axis(axis).tolist()
    entries = _pauli_entries(1.0, lam * n0, lam * n1, lam * n2)
    e_plus = np.array(entries)
    if not is_psd(e_plus):
        raise OutOfRangeError(_BELOW_PSD_TOL)
    return BinaryPovm(
        effect_plus=e_plus, effect_minus=I2 - e_plus, coords=np.array(_entry_coords(entries)), sharpness=lam
    )


@dataclass(frozen=True, eq=False)
class ChshSetting:
    """Four dichotomic observables: Alice (a0, a1), Bob (b0, b1).

    Each is a 2x2 matrix of numbers (`linalg._numbers`) that
    `linalg.eig_hermitian` accepts (finite, bounded, Hermitian within
    HERMITICITY_TOL) with -I ≤ O ≤ I within OBSERVABLE_NORM_TOL, or it is
    refused.  Each field holds a read-only copy of its Hermitian part
    (M + M†)/2, so S and J built from the fields are Hermitian bit for
    bit; writing into `setting.a0` raises, and writing into the caller's
    source array afterwards changes no result.  coords row k holds the
    Pauli coordinates (c0, c1, c2, c3) of that part (c0·I + c·σ)/2, read
    once off the entries checked (pauli_coords of them, bit for bit), and
    read-only too.  Δ, Landau's μ and its involution check read coords
    alone; `chsh.chsh_operator` builds S from the fields on each call.
    Compared and hashed by identity, like every result that holds arrays.
    """

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    coords: np.ndarray = field(init=False)

    def __post_init__(self):
        mats = []
        for name, m in zip(OBSERVABLE_NAMES, self.observables()):
            try:
                m = _numbers(m, complex_ok=True)
            except TypeError:
                message = f"observable {name} must be a 2x2 matrix of numbers, got {type(m).__name__}"
                raise NotHermitianError(message) from None
            if m.shape != (2, 2):
                raise NotHermitianError(f"observable {name} must be 2x2, got shape {m.shape}")
            mats.append(m)
        stack = np.array(mats)
        coords = np.array([_check_observable(n, e) for n, e in zip(OBSERVABLE_NAMES, stack.tolist())])
        stack = (stack + stack.conj().transpose(0, 2, 1)) / 2  # the Hermitian parts every field views
        stack.flags.writeable = False
        coords.flags.writeable = False
        for name, m in zip(OBSERVABLE_NAMES, stack):
            object.__setattr__(self, name, m)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_povms(cls, ma0: BinaryPovm, ma1: BinaryPovm, mb0: BinaryPovm, mb1: BinaryPovm) -> "ChshSetting":
        return cls(ma0.observable(), ma1.observable(), mb0.observable(), mb1.observable())

    @classmethod
    def from_axes(cls, a0_axis, a1_axis, b0_axis, b1_axis) -> "ChshSetting":
        return cls(*(bloch_observable(ax) for ax in (a0_axis, a1_axis, b0_axis, b1_axis)))

    def observables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.a0, self.a1, self.b0, self.b1)


def _check_observable(name: str, entries: list) -> list:
    """pauli_coords of a 2x2 O, as nested lists, if `eig_hermitian` would
    accept it and -I ≤ O ≤ I within OBSERVABLE_NORM_TOL.

    linalg's 2x2 reader runs `eig_hermitian`'s checks, against
    HERMITICITY_TOL, with its messages, defect and exception class, and
    the closed form gives the Hermitian part's eigenvalues lo ≤ hi, so the
    norm is max(-lo, hi).
    """
    lo, hi = _eigvalsh_2x2(_checked_2x2(entries, f"observable {name}"))
    norm = max(-lo, hi)
    if norm > 1.0 + OBSERVABLE_NORM_TOL:
        raise OutOfRangeError(
            f"observable {name} has norm {norm:.3e}, outside -I ≤ O ≤ I (tol {OBSERVABLE_NORM_TOL:.0e})"
        )
    return _entry_coords(entries)


def noisy_family_povms(lam: float) -> tuple[BinaryPovm, BinaryPovm, BinaryPovm, BinaryPovm]:
    """The noisy-Pauli strategy for both parties at common sharpness λ.

    Alice measures along z and x, Bob along (z±x)/√2.  At λ=1 this is the
    setting reaching the quantum CHSH maximum.
    """
    d1 = (Z_AXIS + X_AXIS) / np.sqrt(2)
    d2 = (Z_AXIS - X_AXIS) / np.sqrt(2)
    return (
        noisy_pauli_povm(Z_AXIS, lam),
        noisy_pauli_povm(X_AXIS, lam),
        noisy_pauli_povm(d1, lam),
        noisy_pauli_povm(d2, lam),
    )


def commutator_tensor(setting: ChshSetting) -> np.ndarray:
    """J = ¼ [A1, A0] ⊗ [B0, B1], oriented so S² = 4(I + J) holds entrywise
    for involutive observables.

    Reversing either commutator flips the sign of J but not its spectrum
    (a tensor product of two anti-Hermitian factors is Hermitian with a
    symmetric spectrum), so the top eigenvalue and the norm are
    orientation-independent.  Built anew on each call, for oracles such as
    `verify landau`'s S² = 4(I + J): Δ and μ never read it.
    """
    a0, a1, b0, b1 = setting.observables()
    return 0.25 * kron(a1 @ a0 - a0 @ a1, b0 @ b1 - b1 @ b0)


def incompatibility_degree(setting: ChshSetting) -> float:
    """Δ = ‖J‖ = ¼‖[A0,A1] ⊗ [B0,B1]‖, zero iff either party's pair commutes.

    With o the Bloch vector of O's Hermitian part, [O, O'] = 2i(o × o')·σ
    has norm 2|o × o'|, so Δ = |a0 × a1|·|b0 × b1| in closed form
    (sinθ·sinφ on the canonical setting), never -0.0; 2o is (c1, c2, c3)
    of O's row of setting.coords.  J's spectrum is ±Δ, so Δ is also the μ
    of `chsh.landau_bound`, which calls this.
    """
    (_, x1, x2, x3), (_, y1, y2, y3), (_, u1, u2, u3), (_, v1, v2, v3) = setting.coords.tolist()
    alice = hypot(x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)
    bob = hypot(u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)
    return alice * bob / 16.0
