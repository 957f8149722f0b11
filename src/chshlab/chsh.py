"""CHSH operator assembly, spectral bounds, Born statistics and sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt

import numpy as np

from .errors import InvalidStateError, InvalidTableError, NotHermitianError, NotInvolutiveError, OutOfRangeError
from .linalg import _integer, _numbers, eig_hermitian, kron
from .measurement import (  # noqa: F401 (re-exported)
    OBSERVABLE_NAMES,
    UNIT_AXIS_TOL,
    BinaryPovm,
    ChshSetting,
    commutator_tensor,
    incompatibility_degree,
)

STATE_TOL = 1e-10
# O = n·σ has ||O² - I|| = ||n|² - 1|, which unit_axis lets reach
# (1 + UNIT_AXIS_TOL)² - 1 = 2·UNIT_AXIS_TOL + UNIT_AXIS_TOL²; the third
# UNIT_AXIS_TOL is room for that square and for the roundoff of reading
# |n|² back from the entries
INVOLUTION_TOL = 3 * UNIT_AXIS_TOL
VIOLATION_MARGIN = 1e-9
# how far a Born table's entries may fall below 0 and its (x, y) slices'
# sums stray from 1: a state that check_state accepts has eigenvalues down
# to -STATE_TOL (at most three of them) and trace 1 ± STATE_TOL, so every
# born_table output lies within 3·STATE_TOL plus roundoff of a true table
TABLE_TOL = 10 * STATE_TOL
MAX_SHOTS = 2**63 - 1  # numpy's multinomial draws take a C long


@dataclass(frozen=True, eq=False)
class ChshReport:
    """Outcome of a spectral CHSH computation.

    value is the CHSH expression being reported, bound the certified
    maximum over states (they coincide for the spectral maximizers),
    mu the top eigenvalue of the commutator tensor J, which is the
    incompatibility degree Δ (set by landau_bound), and optimal_state the
    eigenprojector attaining the maximum.  optimal_state is None unless
    the report holds the setting it maximizes over (max_over_states
    passes it); then it is solved on its first read, a 4x4 eigensolve of
    S, and the same array is returned on every later read.
    Compared and hashed by identity, since optimal_state is an array.
    """

    value: float
    bound: float
    violates: bool
    mu: float | None = None
    _setting: ChshSetting | None = field(default=None, repr=False)

    @cached_property
    def optimal_state(self) -> np.ndarray | None:
        """The eigenprojector of S's eigenvalue of largest modulus, ties
        broken by the lowest index in ascending order; None without a
        setting."""
        if self._setting is None:
            return None
        spectrum = eig_hermitian(chsh_operator(self._setting))
        return spectrum.projector(int(np.argmax(np.abs(spectrum.eigenvalues))))  # ties keep the lowest index


def violates(value: float) -> bool:
    """True iff a CHSH value exceeds the local bound 2 by more than the margin."""
    return bool(value > 2.0 + VIOLATION_MARGIN)


def chsh_operator(setting: ChshSetting) -> np.ndarray:
    """S = A0 x (B0 + B1) + A1 x (B0 - B1), a 4x4 Hermitian operator,
    built anew on each call: no production path reads one setting's S twice."""
    a0, a1, b0, b1 = setting.observables()
    return kron(a0, b0 + b1) + kron(a1, b0 - b1)


# the bytes of the last state check_state accepted; threads may share it,
# since it only ever holds the bytes of a state that passed every check
_accepted_state = b""


def check_state(rho) -> np.ndarray:
    """Validate a 4x4 density matrix: Hermitian (`eig_hermitian`'s check), unit trace, PSD within STATE_TOL.

    Checks run in a fixed order, and the first failure is the one refused:
    an input that is not an array of numbers (`linalg._numbers`), shape, a non-finite
    entry, an entry large enough to overflow, the Hermiticity defect, a
    spectrum past the float range, the trace, the lowest eigenvalue.  The
    four middle checks are `eig_hermitian`'s own, so one eigenvalue-only
    call validates the matrix and yields its spectrum.

    A one-entry memo serves one state passed to several calls in a row
    (`chsh_value`, `born_table`, `sample_estimate`): an input whose bytes
    equal those of the last state accepted is returned without solving
    again.  Content equality is enough, since every check reads only the
    sixteen entries.  The key is the content, not the identity, so an
    array mutated in place after it was accepted is checked again; a
    refused input is never remembered.
    """
    global _accepted_state
    try:
        a = _numbers(rho, complex_ok=True)
    except TypeError:
        raise InvalidStateError(f"expected a 4x4 density matrix of numbers, got {type(rho).__name__}") from None
    if a.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 density matrix, got {a.shape}")
    key = a.tobytes()
    if key == _accepted_state:
        return a
    try:
        vals = eig_hermitian(a, vectors=False).eigenvalues
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
    """Rank-one density matrix |v><v| from a unit vector of numbers (`linalg._numbers`).

    Raises InvalidStateError, in this order, for anything but numbers, a
    vector that is not 1-D, a non-finite entry, and a squared norm off 1
    by more than STATE_TOL: check_state would refuse |v><v|'s trace.
    """
    try:
        vec = _numbers(v, complex_ok=True)
    except TypeError:
        raise InvalidStateError(f"expected a state vector of numbers, got {type(v).__name__}") from None
    if vec.ndim != 1:
        raise InvalidStateError(f"expected a 1-D state vector, got shape {vec.shape}")
    norm2 = float(np.vdot(vec, vec).real)
    if not abs(norm2 - 1.0) <= STATE_TOL:  # a non-finite entry fails this too
        if not np.isfinite(vec).all():
            raise InvalidStateError("state vector has a non-finite entry")
        raise InvalidStateError(f"state vector has squared norm {norm2!r}, not 1 (tol {STATE_TOL:.0e})")
    col = vec.reshape(-1, 1)
    return col @ col.conj().T


def landau_bound(setting: ChshSetting) -> ChshReport:
    """Spectral CHSH maximum 2√(1+μ) for projective settings.

    μ, the top eigenvalue of J = ¼[A0,A1]⊗[B0,B1], is Δ in closed form:
    `incompatibility_degree`, no eigensolve.  Valid only when every O
    squares to I (S² = 4I + 4J needs it), read off setting.coords:
    ||O² - I|| = |(c0² + |c|²)/4 - 1| + |c0|·|c|/2 for O = (c0·I + c·σ)/2.
    Other dichotomic observables are rejected, use max_over_states.
    """
    for name, (c0, c1, c2, c3) in zip(OBSERVABLE_NAMES, setting.coords.tolist()):
        norm2 = c1 * c1 + c2 * c2 + c3 * c3
        defect = abs((c0 * c0 + norm2) / 4 - 1.0) + abs(c0) * sqrt(norm2) / 2
        if defect > INVOLUTION_TOL:
            raise NotInvolutiveError(f"observable {name}: ||O² - I|| = {defect:.3e}")
    mu = incompatibility_degree(setting)
    bound = 2.0 * sqrt(1.0 + mu)
    return ChshReport(value=bound, bound=bound, violates=violates(bound), mu=mu)


def max_over_states(setting: ChshSetting) -> ChshReport:
    """max_ρ |<S>_ρ| = ||S|| for any dichotomic-observable setting.

    An unbiased setting, every c0 of setting.coords exactly zero as
    `from_axes` and `noisy_family_povms` give, has S = Σ N_ij σi⊗σj with
    the correlation matrix N = a0(b0 + b1)ᵀ + a1(b0 - b1)ᵀ of the Bloch
    vectors o = c/2.  N has rank at most 2, so ||S|| = σ1(N) + σ2(N), and
    σ1σ2 = |a0 × a1|·|(b0 + b1) × (b0 - b1)| = 2Δ gives the closed form
    ||S|| = √(||N||_F² + 4Δ) (Horodecki, Horodecki and Horodecki, Phys.
    Lett. A 200, 340 (1995)), read off setting.coords with no solve.
    ||N||_F² = |a0|²|u|² + |a1|²|v|² + 2(a0·a1)(u·v) for u = b0 + b1 and
    v = b0 - b1.  Any other setting takes an eigenvalue-only 4x4 solve.

    On both routes the optimal state is solved only when the report's
    optimal_state is read.  S is built from the setting's Hermitian
    parts, so it is Hermitian bit for bit and both solves hold it to
    HERMITICITY_TOL with defect 0.
    """
    rows = setting.coords.tolist()
    if rows[0][0] == rows[1][0] == rows[2][0] == rows[3][0] == 0.0:
        (_, x0, x1, x2), (_, y0, y1, y2), (_, p0, p1, p2), (_, q0, q1, q2) = rows
        u0, u1, u2, v0, v1, v2 = p0 + q0, p1 + q1, p2 + q2, p0 - q0, p1 - q1, p2 - q2
        # the coords are 2o: each product of two squared lengths is 16 times too large
        frobenius2 = (
            (x0 * x0 + x1 * x1 + x2 * x2) * (u0 * u0 + u1 * u1 + u2 * u2)
            + (y0 * y0 + y1 * y1 + y2 * y2) * (v0 * v0 + v1 * v1 + v2 * v2)
            + 2.0 * (x0 * y0 + x1 * y1 + x2 * y2) * (u0 * v0 + u1 * v1 + u2 * v2)
        ) / 16.0
        top = sqrt(frobenius2 + 4.0 * incompatibility_degree(setting))
    else:
        vals = eig_hermitian(chsh_operator(setting), vectors=False).eigenvalues
        top = float(max(abs(vals[0]), abs(vals[-1])))  # ascending: the largest modulus is at an end
    return ChshReport(value=top, bound=top, violates=violates(top), _setting=setting)


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


def _checked_table(table) -> np.ndarray:
    """table as a float array, or InvalidTableError unless it is a finite
    array of real numbers (`linalg._numbers`) with shape (2, 2, 2, 2),
    indexed [x, y, a, b], whose entries are at least -TABLE_TOL and whose
    (x, y) slices each sum to 1 within TABLE_TOL.  No-signalling is not
    checked: a table of measured frequencies breaks it by O(1/√shots).
    Integer counts are read as floats: the differences of unsigned or
    fixed-width integers would wrap around."""
    try:
        t = _numbers(table)
    except TypeError:
        raise InvalidTableError(f"Born table must be an array of real numbers, got {type(table).__name__}") from None
    if t.shape != (2, 2, 2, 2):
        raise InvalidTableError(f"Born table must have shape (2, 2, 2, 2), got {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidTableError("Born table has a non-finite entry")
    for (x, y), row in zip(((0, 0), (0, 1), (1, 0), (1, 1)), t.reshape(4, 4).tolist()):
        low = min(row)
        if low < -TABLE_TOL:
            raise InvalidTableError(
                f"Born table entry {low!r} at (x, y) = ({x}, {y}) is below 0 (tol {TABLE_TOL:.0e})"
            )
        total = sum(row)  # Python floats: a sum past float max is inf, without a warning
        if not abs(total - 1.0) <= TABLE_TOL:
            raise InvalidTableError(
                f"Born table slice (x, y) = ({x}, {y}) sums to {total!r}, not 1 (tol {TABLE_TOL:.0e})"
            )
    return t


def correlators_from_table(table: np.ndarray) -> np.ndarray:
    """E[x, y] = p(+,+) - p(+,-) - p(-,+) + p(-,-).

    Raises InvalidTableError unless table is a finite real array of shape
    (2, 2, 2, 2) whose entries are nonnegative and whose (x, y) slices sum
    to 1, each within TABLE_TOL.
    """
    return _correlators(_checked_table(table))


def _correlators(t: np.ndarray) -> np.ndarray:
    """correlators_from_table of a table this module built, unchecked."""
    return t[:, :, 0, 0] - t[:, :, 0, 1] - t[:, :, 1, 0] + t[:, :, 1, 1]


def _chsh_combination(e: np.ndarray) -> float:
    """|E00 + E01 + E10 - E11| of a 2x2 correlator array."""
    return float(abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


def chsh_from_table(table: np.ndarray) -> float:
    """|E00 + E01 + E10 - E11| assembled from a Born table; refused as in
    correlators_from_table."""
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


def sample_estimate(
    povms: tuple[BinaryPovm, BinaryPovm, BinaryPovm, BinaryPovm],
    rho,
    shots_per_pair: int,
    seed: int,
) -> SampleEstimate:
    """Finite-shot CHSH estimate with binomial-propagated standard error.

    Outcomes are drawn i.i.d. from the Born table, one independent stream
    per setting pair: pair k's is child k of SeedSequence(seed).spawn(4),
    built without the parent, in fixed (x, y) order, so results do not depend on evaluation order and repeat exactly
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
    rngs = (np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,)))) for k in range(4))
    counts = np.array([rng.multinomial(shots_per_pair, p) for rng, p in zip(rngs, probs)])
    corr = _correlators(counts.reshape(2, 2, 2, 2)) / shots_per_pair
    variance = 0.0
    for e_hat in corr.ravel().tolist():  # (x, y) order
        variance += max(1.0 - e_hat * e_hat, 0.0) / shots_per_pair
    return SampleEstimate(
        estimate=_chsh_combination(corr),
        std_error=float(np.sqrt(variance)),
        correlators=corr,
        shots_per_pair=shots_per_pair,
        seed=seed,
        exact=_chsh_combination(_correlators(table)),
    )
