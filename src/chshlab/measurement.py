"""Qubit observables, binary POVMs and the degree of measurement incompatibility."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NonUnitAxisError, NotHermitianError, OutOfRangeError
from .linalg import I2, as_matrix, comm, hermitize, is_psd, kron, operator_norm

UNIT_AXIS_TOL = 1e-9
PSD_TOL = 1e-12
_BELOW_PSD_TOL = "POVM effect has an eigenvalue below -1e-12"

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def unit_axis(v) -> np.ndarray:
    """Validate a Bloch direction; must have unit Euclidean norm."""
    a = np.asarray(v, dtype=float).reshape(3)
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
    the sign of a zero coordinate.
    """
    (a00, a01), (a10, a11) = as_matrix(m).tolist()
    return np.array(
        [a00.real + a11.real, a01.real + a10.real, a10.imag - a01.imag, a00.real - a11.real]
    )


def _from_pauli_coords(c0: float, c1: float, c2: float, c3: float) -> np.ndarray:
    """(c0·I + c1·σx + c2·σy + c3·σz)/2, written entry by entry.

    Equal to that sum bit for bit when c0 > 0; otherwise up to the sign of
    a zero entry.
    """
    return np.array(
        [
            [complex((c0 + c3) / 2, 0.0), complex((0.0 + c1) / 2, (0.0 - c2) / 2)],
            [complex((0.0 + c1) / 2, (0.0 + c2) / 2), complex((c0 - c3) / 2, 0.0)],
        ]
    )


def from_pauli_coords(c) -> np.ndarray:
    """(c0·I + c1·σx + c2·σy + c3·σz)/2 for c = (c0, c1, c2, c3); see _from_pauli_coords."""
    return _from_pauli_coords(*np.asarray(c, dtype=float).reshape(4).tolist())


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
        e_plus = hermitize(effect_plus)
        if e_plus.shape != (2, 2):
            raise NotHermitianError(f"qubit POVM effect must be 2x2, got shape {e_plus.shape}")
        # both effects: a biased E+ (tr ≠ 1) and I - E+ have different spectra
        e_minus = I2 - e_plus
        for eff in (e_plus, e_minus):
            if not is_psd(eff, PSD_TOL):
                raise OutOfRangeError(_BELOW_PSD_TOL)
        return cls(effect_plus=e_plus, effect_minus=e_minus, coords=pauli_coords(e_plus))

    @property
    def bias(self) -> float:
        """tr(E+) - 1, zero for the unbiased family."""
        return float(self.coords[0] - 1.0)

    def observable(self) -> np.ndarray:
        """Dichotomic observable E+ - E-."""
        return self.effect_plus - self.effect_minus


def noisy_pauli_povm(axis, lam: float) -> BinaryPovm:
    """Noisy Pauli POVM with effects (I ± λ n·σ)/2.

    E+ is from_pauli_coords((1, λn)), written entry by entry and Hermitian
    by construction, so it skips from_effect's symmetrization.  Each entry
    equals the one hermitize((I + λ·bloch_observable(n))/2) gives, bit for
    bit; only where λn_k/2 underflows to zero may the sign of that zero
    differ.  coords are read back from those entries by pauli_coords.

    Only E+ goes through the PSD check.  tr E+ = 1, so E- = I - E+ has the
    eigenvalues 1 - (1 ± λ|n|)/2 = (1 ∓ λ|n|)/2 of E+, and E- ≥ 0 ⇔ E+ ≥ 0
    (Busch, Phys. Rev. D 33, 2253 (1986)).  The check refuses only a
    λ|n| above 1 + 2e-12, which unit_axis's tolerance lets through near
    λ = 1.
    """
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"sharpness λ={lam!r} outside [0, 1]")
    n0, n1, n2 = unit_axis(axis).tolist()
    e_plus = _from_pauli_coords(1.0, lam * n0, lam * n1, lam * n2)
    if not is_psd(e_plus, PSD_TOL):
        raise OutOfRangeError(_BELOW_PSD_TOL)
    return BinaryPovm(effect_plus=e_plus, effect_minus=I2 - e_plus, coords=pauli_coords(e_plus), sharpness=lam)


@dataclass(frozen=True, eq=False)
class ChshSetting:
    """Four dichotomic observables: Alice (a0, a1), Bob (b0, b1).  Compared
    and hashed by identity, like every result that holds arrays."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    @classmethod
    def from_povms(cls, ma0: BinaryPovm, ma1: BinaryPovm, mb0: BinaryPovm, mb1: BinaryPovm) -> "ChshSetting":
        return cls(ma0.observable(), ma1.observable(), mb0.observable(), mb1.observable())

    @classmethod
    def from_axes(cls, a0_axis, a1_axis, b0_axis, b1_axis) -> "ChshSetting":
        return cls(*(bloch_observable(ax) for ax in (a0_axis, a1_axis, b0_axis, b1_axis)))

    def observables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.a0, self.a1, self.b0, self.b1)


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
    orientation-independent.
    """
    return 0.25 * kron(comm(setting.a1, setting.a0), comm(setting.b0, setting.b1))


def incompatibility_degree(setting: ChshSetting) -> float:
    """Δ = ‖J‖ = ¼‖[A0,A1] ⊗ [B0,B1]‖, zero iff either party's pair commutes.

    Computed from the explicit 4x4 tensor product so the definition applies
    to non-projective observables too; the factorized form ¼‖[A0,A1]‖·‖[B0,B1]‖
    is only used as a test oracle.
    """
    return operator_norm(commutator_tensor(setting))
