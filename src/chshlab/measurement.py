"""Qubit observables, binary POVMs and the degree of measurement incompatibility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitAxisError, NotHermitianError, OutOfRangeError
from .linalg import I2, SX, SY, SZ, as_matrix, comm, hermitize, is_psd, kron, operator_norm

UNIT_AXIS_TOL = 1e-9
PSD_TOL = 1e-12

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def unit_axis(v) -> np.ndarray:
    """Validate a Bloch direction; must have unit Euclidean norm."""
    a = np.asarray(v, dtype=float).reshape(3)
    norm = float(np.sqrt(a.dot(a)))  # numpy.linalg.norm of a real vector, bit for bit
    if abs(norm - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxisError(f"axis norm {norm!r} deviates from 1 beyond {UNIT_AXIS_TOL:.0e}")
    return a


def bloch_observable(axis) -> np.ndarray:
    """n·σ for a unit Bloch vector n: Hermitian, traceless, eigenvalues ±1."""
    n = unit_axis(axis)
    return n[0] * SX + n[1] * SY + n[2] * SZ


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


def from_pauli_coords(c) -> np.ndarray:
    c = np.asarray(c, dtype=float).reshape(4)
    return (c[0] * I2 + c[1] * SX + c[2] * SY + c[3] * SZ) / 2


@dataclass(frozen=True)
class BinaryPovm:
    """Two-effect qubit POVM {E+, E- = I - E+}.

    coords are the Pauli coordinates (c0, c1, c2, c3) of E+, so
    E+ = (c0·I + c·σ)/2.  sharpness is the noise parameter of noisy-Pauli
    POVMs, None for anything else.
    """

    effect_plus: np.ndarray
    effect_minus: np.ndarray
    coords: np.ndarray
    sharpness: float | None = None

    @classmethod
    def from_effect(cls, effect_plus, sharpness: float | None = None) -> "BinaryPovm":
        e_plus = hermitize(effect_plus)
        if e_plus.shape != (2, 2):
            raise NotHermitianError(f"qubit POVM effect must be 2x2, got shape {e_plus.shape}")
        e_minus = I2 - e_plus
        for eff in (e_plus, e_minus):
            if not is_psd(eff, PSD_TOL):
                raise OutOfRangeError("POVM effect has an eigenvalue below -1e-12")
        return cls(effect_plus=e_plus, effect_minus=e_minus, coords=pauli_coords(e_plus), sharpness=sharpness)

    @property
    def bias(self) -> float:
        """tr(E+) - 1, zero for the unbiased family."""
        return float(self.coords[0] - 1.0)

    def observable(self) -> np.ndarray:
        """Dichotomic observable E+ - E-."""
        return self.effect_plus - self.effect_minus


def noisy_pauli_povm(axis, lam: float) -> BinaryPovm:
    """Noisy Pauli POVM with effects (I ± λ n·σ)/2."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"sharpness λ={lam!r} outside [0, 1]")
    obs = bloch_observable(axis)
    return BinaryPovm.from_effect((I2 + lam * obs) / 2, sharpness=lam)


@dataclass(frozen=True)
class ChshSetting:
    """Four dichotomic observables: Alice (a0, a1), Bob (b0, b1)."""

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


def incompatibility_degree(setting: ChshSetting) -> float:
    """Δ = ¼‖[A0,A1] ⊗ [B0,B1]‖, zero iff either party's pair commutes.

    Computed from the explicit 4x4 tensor product so the definition applies
    to non-projective observables too; the factorized form ¼‖[A0,A1]‖·‖[B0,B1]‖
    is only used as a test oracle.
    """
    j4 = kron(comm(setting.a0, setting.a1), comm(setting.b0, setting.b1))
    return 0.25 * operator_norm(j4)
