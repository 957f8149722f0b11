"""CHSH operator assembly, spectral bounds, Born statistics and sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotInvolutiveError, OutOfRangeError
from .linalg import I2, comm, eig_hermitian, kron
from .measurement import BinaryPovm, ChshSetting

STATE_TOL = 1e-10
INVOLUTION_TOL = 1e-9
VIOLATION_MARGIN = 1e-9
MAX_SHOTS = 2**63 - 1  # numpy's multinomial draws take a C long


@dataclass(frozen=True, eq=False)
class ChshReport:
    """Outcome of a spectral CHSH computation.

    value is the CHSH expression being reported, bound the certified
    maximum over states (they coincide for the spectral maximizers),
    mu the top eigenvalue of the commutator tensor (set by landau_bound),
    and optimal_state the eigenprojector attaining the maximum (set by
    max_over_states).  Compared and hashed by identity, since
    optimal_state is an array.
    """

    value: float
    bound: float
    violates: bool
    mu: float | None = None
    optimal_state: np.ndarray | None = None


def violates(value: float) -> bool:
    """True iff a CHSH value exceeds the local bound 2 by more than the margin."""
    return bool(value > 2.0 + VIOLATION_MARGIN)


def chsh_operator(setting: ChshSetting) -> np.ndarray:
    """S = A0 x (B0 + B1) + A1 x (B0 - B1), a 4x4 Hermitian operator."""
    return kron(setting.a0, setting.b0 + setting.b1) + kron(setting.a1, setting.b0 - setting.b1)


def commutator_tensor(setting: ChshSetting) -> np.ndarray:
    """J = ¼ [A1, A0] ⊗ [B0, B1], oriented so S² = 4(I + J) holds entrywise
    for involutive observables.

    Reversing either commutator flips the sign of J but not its spectrum
    (a tensor product of two anti-Hermitian factors is Hermitian with a
    symmetric spectrum), so the top eigenvalue and the norm are
    orientation-independent.
    """
    return 0.25 * kron(comm(setting.a1, setting.a0), comm(setting.b0, setting.b1))


def check_state(rho, dim: int = 4, tol: float = STATE_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD within tol."""
    a = np.asarray(rho, dtype=complex)
    if a.shape != (dim, dim):
        raise InvalidStateError(f"expected a {dim}x{dim} density matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidStateError("density matrix has a non-finite entry")
    if float(abs(a - a.conj().T).max()) > tol:
        raise InvalidStateError("density matrix is not Hermitian")
    trace = a.trace()
    if abs(trace.real - 1.0) > tol or abs(trace.imag) > tol:
        raise InvalidStateError(f"trace {trace} != 1")
    low = eig_hermitian(a, np.inf).eigenvalues[0]  # the defect is measured above
    if low < -tol:
        raise InvalidStateError(f"negative eigenvalue {low:.3e}")
    return a


def state_from_vector(v) -> np.ndarray:
    """Rank-one density matrix |v><v| from a unit vector."""
    vec = np.asarray(v, dtype=complex).reshape(-1, 1)
    return vec @ vec.conj().T


def _top_modulus_projector(spectrum) -> tuple[float, np.ndarray]:
    vals = spectrum.eigenvalues
    idx = int(np.argmax(np.abs(vals)))  # ties keep the lowest index
    return float(abs(vals[idx])), spectrum.projector(idx)


def landau_bound(setting: ChshSetting) -> ChshReport:
    """Spectral CHSH maximum 2√(1+μ) for projective settings.

    μ is the top eigenvalue of J = ¼[A0,A1]⊗[B0,B1].  Valid only when every
    observable squares to the identity (S² = 4I + 4J needs it); non-involutive
    observables are rejected, use max_over_states for those.
    """
    obs = np.array(setting.observables())
    defects = abs(obs @ obs - I2).max(axis=(1, 2)).tolist()
    for name, defect in zip(("a0", "a1", "b0", "b1"), defects):
        if defect > INVOLUTION_TOL:
            raise NotInvolutiveError(f"observable {name}: ||O² - I|| = {defect:.3e}")
    mu = float(eig_hermitian(commutator_tensor(setting)).eigenvalues[-1])
    bound = 2.0 * np.sqrt(1.0 + mu)
    return ChshReport(value=bound, bound=bound, violates=violates(bound), mu=mu)


def max_over_states(setting: ChshSetting) -> ChshReport:
    """max_ρ |<S>_ρ| = ||S|| for any dichotomic-observable setting.

    The optimal state is the eigenprojector of the eigenvalue of largest
    modulus (ties broken by lowest index in ascending order).
    """
    top, projector = _top_modulus_projector(eig_hermitian(chsh_operator(setting)))
    return ChshReport(
        value=top,
        bound=top,
        violates=violates(top),
        optimal_state=projector,
    )


def chsh_value(setting: ChshSetting, rho) -> float:
    """|tr(ρS)| for a validated two-qubit state."""
    a = check_state(rho)
    return float(abs(np.trace(a @ chsh_operator(setting)).real))


def born_table(ma0: BinaryPovm, ma1: BinaryPovm, mb0: BinaryPovm, mb1: BinaryPovm, rho) -> np.ndarray:
    """Joint outcome probabilities p[x, y, i, j] = tr(ρ M_{a|x} ⊗ N_{b|y}).

    Outcome index 0 maps to a=+1 and 1 to a=-1; each (x, y) slice sums to 1.
    """
    a = check_state(rho).reshape(2, 2, 2, 2)  # a[i, k, j, l] = <i k|ρ|j l>
    alice = np.array([[ma0.effect_plus, ma0.effect_minus], [ma1.effect_plus, ma1.effect_minus]])
    bob = np.array([[mb0.effect_plus, mb0.effect_minus], [mb1.effect_plus, mb1.effect_minus]])
    return np.einsum("ikjl,xaji,yblk->xyab", a, alice, bob).real


def correlators_from_table(table: np.ndarray) -> np.ndarray:
    """E[x, y] = p(+,+) - p(+,-) - p(-,+) + p(-,-)."""
    t = np.asarray(table)
    return t[:, :, 0, 0] - t[:, :, 0, 1] - t[:, :, 1, 0] + t[:, :, 1, 1]


def chsh_from_table(table: np.ndarray) -> float:
    """|E00 + E01 + E10 - E11| assembled from a Born table."""
    e = correlators_from_table(table)
    return float(abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


@dataclass(frozen=True, eq=False)
class SampleEstimate:
    """A finite-shot CHSH estimate; compared and hashed by identity, since
    correlators is an array."""

    estimate: float
    std_error: float
    correlators: np.ndarray
    shots_per_pair: int
    seed: int


def sample_estimate(
    povms: tuple[BinaryPovm, BinaryPovm, BinaryPovm, BinaryPovm],
    rho,
    shots_per_pair: int,
    seed: int,
) -> SampleEstimate:
    """Finite-shot CHSH estimate with binomial-propagated standard error.

    Outcomes are drawn i.i.d. from the Born table, one independent stream
    per setting pair.  Streams are spawned from the seed in fixed (x, y)
    order, so results do not depend on evaluation order and repeat exactly
    for equal seeds.
    """
    if not 1 <= shots_per_pair <= MAX_SHOTS:
        raise OutOfRangeError(f"shots_per_pair must be in [1, {MAX_SHOTS}], got {shots_per_pair}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    table = born_table(*povms, rho)
    probs = np.clip(table.reshape(4, 4), 0.0, None)  # row 2x + y is pair (x, y)
    probs /= probs.sum(axis=1, keepdims=True)
    streams = np.random.SeedSequence(seed).spawn(4)
    corr = np.empty((2, 2))
    variance = 0.0
    for x in range(2):
        for y in range(2):
            rng = np.random.Generator(np.random.Philox(streams[2 * x + y]))
            counts = rng.multinomial(shots_per_pair, probs[2 * x + y])
            e_hat = (counts[0] - counts[1] - counts[2] + counts[3]) / shots_per_pair
            corr[x, y] = e_hat
            variance += max(1.0 - e_hat * e_hat, 0.0) / shots_per_pair
    estimate = float(abs(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]))
    return SampleEstimate(
        estimate=estimate,
        std_error=float(np.sqrt(variance)),
        correlators=corr,
        shots_per_pair=int(shots_per_pair),
        seed=int(seed),
    )
