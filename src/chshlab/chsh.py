"""CHSH operator assembly, spectral bounds, Born statistics and sampling."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import InvalidStateError, NotHermitianError, NotInvolutiveError, OutOfRangeError
from .linalg import eig_hermitian
from .measurement import OBSERVABLE_NAMES, BinaryPovm, ChshSetting, commutator_tensor

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
    """S = A0 x (B0 + B1) + A1 x (B0 - B1), a 4x4 Hermitian operator.

    Built once per setting and read-only.
    """
    return setting.chsh_operator


# the bytes of the last state check_state accepted; threads may share it,
# since it only ever holds the bytes of a state that passed every check
_accepted_state = b""


def check_state(rho) -> np.ndarray:
    """Validate a 4x4 density matrix: Hermitian, unit trace, PSD within STATE_TOL.

    Checks run in a fixed order, and the first failure is the one refused:
    shape, a non-finite entry, an entry large enough to overflow, the
    Hermiticity defect, a spectrum past the float range, the trace, the
    lowest eigenvalue.  The four middle checks are `eig_hermitian`'s own,
    so one eigenvalue-only call validates the matrix and yields its
    spectrum.

    A one-entry memo serves one state passed to several calls in a row
    (`chsh_value`, `born_table`, `sample_estimate`): an input whose bytes
    equal those of the last state accepted is returned without solving
    again.  Content equality is enough, since every check reads only the
    sixteen entries.  The key is the content, not the identity, so an
    array mutated in place after it was accepted is checked again; a
    refused input is never remembered.
    """
    global _accepted_state
    a = np.asarray(rho, dtype=complex)
    if a.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 density matrix, got {a.shape}")
    key = a.tobytes()
    if key == _accepted_state:
        return a
    try:
        vals = eig_hermitian(a, STATE_TOL, vectors=False).eigenvalues
    except NotHermitianError as exc:
        reason = str(exc) if exc.defect is None else "matrix is not Hermitian"
        raise InvalidStateError(f"density {reason}") from None
    low = float(vals[0])
    d0, d1, d2, d3 = a.diagonal().tolist()
    trace = d0 + d1 + d2 + d3  # a bounded diagonal may sum to inf; Python floats do not warn
    if abs(trace.real - 1.0) > STATE_TOL or abs(trace.imag) > STATE_TOL:
        raise InvalidStateError(f"trace {trace} != 1")
    if low < -STATE_TOL:
        raise InvalidStateError(f"negative eigenvalue {low:.3e}")
    _accepted_state = key
    return a


def state_from_vector(v) -> np.ndarray:
    """Rank-one density matrix |v><v| from a unit vector."""
    vec = np.asarray(v, dtype=complex).reshape(-1, 1)
    return vec @ vec.conj().T


def _top_modulus_projector(spectrum) -> tuple[float, np.ndarray]:
    vals = spectrum.eigenvalues
    idx = int(np.argmax(np.abs(vals)))  # ties keep the lowest index
    return float(abs(vals[idx])), spectrum.projector(idx)


def _involution_defect(obs: np.ndarray) -> float:
    """Largest entry modulus of O² - I for a 2x2 O, from its four entries."""
    (p, q), (r, s) = obs.tolist()
    return max(abs(p * p + q * r - 1.0), abs(p * q + q * s), abs(r * p + s * r), abs(r * q + s * s - 1.0))


def landau_bound(setting: ChshSetting) -> ChshReport:
    """Spectral CHSH maximum 2√(1+μ) for projective settings.

    μ is the top eigenvalue of J = ¼[A0,A1]⊗[B0,B1].  Valid only when every
    observable squares to the identity (S² = 4I + 4J needs it); non-involutive
    observables are rejected, use max_over_states for those.
    """
    for name, obs in zip(OBSERVABLE_NAMES, setting.observables()):
        defect = _involution_defect(obs)
        if defect > INVOLUTION_TOL:
            raise NotInvolutiveError(f"observable {name}: ||O² - I|| = {defect:.3e}")
    mu = float(eig_hermitian(commutator_tensor(setting), vectors=False).eigenvalues[-1])
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


def _chsh_combination(e: np.ndarray) -> float:
    """|E00 + E01 + E10 - E11| of a 2x2 correlator array."""
    return float(abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


def chsh_from_table(table: np.ndarray) -> float:
    """|E00 + E01 + E10 - E11| assembled from a Born table."""
    return _chsh_combination(correlators_from_table(table))


@dataclass(frozen=True, eq=False)
class SampleEstimate:
    """A finite-shot CHSH estimate, with exact = chsh_from_table of the Born
    table it was drawn from; compared and hashed by identity, since
    correlators is an array."""

    estimate: float
    std_error: float
    correlators: np.ndarray
    shots_per_pair: int
    seed: int
    exact: float


def _integer(name: str, value) -> int:
    """value as an int: Python and numpy integers pass, anything else is refused."""
    try:
        return index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


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
    for equal seeds.  The counts drawn form a Born table of counts, so each
    correlator is its integer count difference over shots_per_pair.
    shots_per_pair and seed must be Python or numpy integers: a float,
    even an integral one, is refused rather than truncated.
    """
    shots_per_pair = _integer("shots_per_pair", shots_per_pair)
    seed = _integer("seed", seed)
    if not 1 <= shots_per_pair <= MAX_SHOTS:
        raise OutOfRangeError(f"shots_per_pair must be in [1, {MAX_SHOTS}], got {shots_per_pair}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    table = born_table(*povms, rho)
    probs = np.clip(table.reshape(4, 4), 0.0, None)  # row 2x + y is pair (x, y)
    probs /= probs.sum(axis=1, keepdims=True)
    rngs = (np.random.Generator(np.random.Philox(s)) for s in np.random.SeedSequence(seed).spawn(4))
    counts = np.array([rng.multinomial(shots_per_pair, p) for rng, p in zip(rngs, probs)])
    corr = correlators_from_table(counts.reshape(2, 2, 2, 2)) / shots_per_pair
    variance = 0.0
    for e_hat in corr.ravel().tolist():  # (x, y) order
        variance += max(1.0 - e_hat * e_hat, 0.0) / shots_per_pair
    return SampleEstimate(
        estimate=_chsh_combination(corr),
        std_error=float(np.sqrt(variance)),
        correlators=corr,
        shots_per_pair=shots_per_pair,
        seed=seed,
        exact=chsh_from_table(table),
    )
