"""Maximal CHSH expression at fixed pure-state entanglement and fixed
measurement incompatibility: Schmidt states, canonical settings, local
unitary search, the closed-form maximum and the nonlocality region."""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, isfinite, pi, sin, sqrt

import numpy as np

from . import _kernels
from .chsh import chsh_operator, state_from_vector, violates
from .errors import DegenerateDeltaError, NonRealTraceError, OutOfRangeError
from .linalg import _integer, _real
from .measurement import ChshSetting, X_AXIS, Z_AXIS

TRACE_IMAG_ERROR = 1e-8
DELTA_SINGULAR_TOL = 1e-12
DEFAULT_RESTARTS = 20

# search box per unitary: psi in [0,4pi), phi in [0,2pi], theta in [0,pi]
_PARAM_BOX = np.array([4 * pi, 2 * pi, pi, 4 * pi, 2 * pi, pi])


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """sqrt(E)|00> + sqrt(1-E)|11> with E in [0, 1/2] (E=1/2 maximal).
    Compared and hashed by identity: vector is an array."""

    e: float
    vector: np.ndarray

    def density_matrix(self) -> np.ndarray:
        return state_from_vector(self.vector)


def _concurrence(e: float) -> float:
    """Concurrence 2√(E(1-E)) of the Schmidt state; E must lie in [0, ½]."""
    if not 0.0 <= _real("entanglement parameter", e) <= 0.5:
        raise OutOfRangeError(f"entanglement parameter {e!r} outside [0, 1/2]")
    return 2.0 * sqrt(e * (1.0 - e))


def schmidt_state(e: float) -> SchmidtState:
    _concurrence(e)  # range check
    vec = np.array([sqrt(e), 0.0, 0.0, sqrt(1.0 - e)], dtype=complex)
    return SchmidtState(e=float(e), vector=vec)


@dataclass(frozen=True)
class CanonicalAngles:
    """Measurement spreads: Alice axes z and z·cosφ + x·sinφ, Bob axes
    z·cos(θ/2) ± x·sin(θ/2).  Incompatibility degree is sinθ·sinφ."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= _real("theta", self.theta) <= pi / 2 + 1e-12:
            raise OutOfRangeError(f"theta {self.theta!r} outside [0, pi/2]")
        if not 0.0 <= _real("phi", self.phi) <= pi / 2 + 1e-12:
            raise OutOfRangeError(f"phi {self.phi!r} outside [0, pi/2]")

    @property
    def delta(self) -> float:
        return sin(self.theta) * sin(self.phi)


def canonical_axes(angles: CanonicalAngles) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bloch axes (a0, a1, b0, b1) of the canonical setting."""
    th, ph = angles.theta, angles.phi
    return (
        Z_AXIS.copy(),
        cos(ph) * Z_AXIS + sin(ph) * X_AXIS,
        cos(th / 2) * Z_AXIS + sin(th / 2) * X_AXIS,
        cos(th / 2) * Z_AXIS - sin(th / 2) * X_AXIS,
    )


def canonical_setting(angles: CanonicalAngles) -> ChshSetting:
    return ChshSetting.from_axes(*canonical_axes(angles))


@dataclass(frozen=True)
class UnitaryParams:
    """Euler-style triple (psi, phi, theta) of one local unitary.

    The fundamental domain is psi in [0,4pi), phi in [0,2pi], theta in
    [0,pi]; the generated matrix is 4pi-periodic so out-of-range values
    wrap rather than error.  On a Schmidt state only the sum of the two
    parties' psi matters, so the pair max_chsh_over_unitaries returns
    has psi = 0 for Bob.  Each angle must be a finite real number, or
    OutOfRangeError.
    """

    psi: float
    phi: float
    theta: float

    def __post_init__(self):
        for name in ("psi", "phi", "theta"):
            value = _real(name, getattr(self, name))
            try:
                finite = isfinite(value)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise OutOfRangeError(f"{name} {value!r} is not a finite angle")


def local_unitary(params: UnitaryParams) -> np.ndarray:
    """2x2 unitary with cos(θ/2) phases on the diagonal, sin(θ/2) off it."""
    # as floats, so a float32 angle gives its float64 twin's complex128 matrix
    psi, phi, theta = float(params.psi), float(params.phi), float(params.theta)
    # halved before summing, so angles near float max stay finite
    a = 0.5 * psi + 0.5 * phi
    b = 0.5 * psi - 0.5 * phi
    c = cos(0.5 * theta)
    s = sin(0.5 * theta)
    return np.array(
        [
            [c * np.exp(1j * a), s * np.exp(-1j * b)],
            [-s * np.exp(1j * b), c * np.exp(-1j * a)],
        ]
    )


def rotated_chsh(e: float, angles: CanonicalAngles, p1: UnitaryParams, p2: UnitaryParams) -> float:
    """CHSH expectation of (U1 ⊗ U2)|ψ_E> under the canonical setting.

    Straightforward dense computation; the kernel `chsh_objective` evaluates
    the same quantity in the optimizer's inner loop and is tested against this.
    """
    state = schmidt_state(e)
    u = np.kron(local_unitary(p1), local_unitary(p2))
    rho = state_from_vector(u @ state.vector)
    value = complex(np.trace(rho @ chsh_operator(canonical_setting(angles))))
    if abs(value.imag) > TRACE_IMAG_ERROR:
        raise NonRealTraceError(f"imaginary trace residue {value.imag:.3e}: operator assembly bug")
    return float(value.real)


def max_chsh_over_unitaries(
    e: float,
    angles: CanonicalAngles,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> tuple[float, tuple[UnitaryParams, UnitaryParams]]:
    """Numerical maximum of rotated_chsh over both local unitaries.

    Multistart Nelder-Mead: `restarts` seeded random starts in the
    6-parameter box, best value wins (ties keep the earliest start).
    The landscape has symmetric local optima, so multistart is mandatory.
    Deterministic for fixed (restarts, seed).  Each search walks only
    Alice's phi and theta (`_kernels.maximize_chsh`), from the start's
    two entries for them: the objective is linear in Bob's rotation, so
    its maximum over Bob's unitary is exact at every step, and Bob's
    angles are read from that rotation at the end.  Only psi1 + psi2
    enters, so the returned p2 has psi = 0 and p1's psi carries the
    pair's sum.  restarts and seed must be Python or numpy integers, as
    in `chsh.sample_estimate`.
    """
    restarts = _integer("restarts", restarts)
    seed = _integer("seed", seed)
    if restarts < 1:
        raise OutOfRangeError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    _concurrence(e)  # range check
    s_flat = chsh_operator(canonical_setting(angles)).real.ravel().tolist()
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best_x: list[float] | None = None
    for _ in range(restarts):
        x0 = rng.uniform(0.0, 1.0, 6) * _PARAM_BOX
        value, x, _ = _kernels.maximize_chsh(s_flat, e, x0)
        if value > best_value:
            best_value = value
            best_x = x
    assert best_x is not None
    p1 = UnitaryParams(psi=best_x[0], phi=best_x[1], theta=best_x[2])
    p2 = UnitaryParams(psi=best_x[3], phi=best_x[4], theta=best_x[5])
    return float(best_value), (p1, p2)


def max_chsh_closed_form(e: float, delta: float) -> float:
    """(2-X)√(1+Δ) + X√(1-Δ) with X = 1 - 2√(E(1-E)).

    The maximal CHSH expression over local unitaries at entanglement E and
    incompatibility Δ; equals 2√2 at (1/2, 1) and 2 at Δ=0 for every E.
    """
    x = 1.0 - _concurrence(e)
    if not 0.0 <= _real("incompatibility degree", delta) <= 1.0:
        raise OutOfRangeError(f"incompatibility degree {delta!r} outside [0, 1]")
    return (2.0 - x) * sqrt(1.0 + delta) + x * sqrt(1.0 - delta)


def stationarity_ratios(
    angles: CanonicalAngles,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(sin, cos) pairs fixing θ1+θ2 and θ1-θ2 at the stationary point.

    Singular at Δ = 1 where the sum-branch denominator √(1-Δ) vanishes.
    """
    th, ph = angles.theta, angles.phi
    delta = angles.delta
    if 1.0 - delta < DELTA_SINGULAR_TOL:
        raise DegenerateDeltaError(f"1 - Δ = {1.0 - delta:.3e}: stationarity relations singular")
    den_minus = sqrt(1.0 - delta)
    den_plus = sqrt(1.0 + delta)
    half = th / 2.0
    sin_sum = -sin(half) * cos(ph) / den_minus
    cos_sum = (cos(half) - sin(half) * sin(ph)) / den_minus
    sin_diff = sin(half) * cos(ph) / den_plus
    cos_diff = (cos(half) + sin(half) * sin(ph)) / den_plus
    return (sin_sum, cos_sum), (sin_diff, cos_diff)


def stationary_angles(angles: CanonicalAngles) -> tuple[float, float]:
    """(θ1+θ2, θ1-θ2) recovered from the stationarity relations via atan2.

    Only the two combinations are determined; individual θ1, θ2 are free
    up to that constraint (with both azimuthal parameters zero and the
    psi-pair summing to zero at the optimum).
    """
    (sin_sum, cos_sum), (sin_diff, cos_diff) = stationarity_ratios(angles)
    return atan2(sin_sum, cos_sum), atan2(sin_diff, cos_diff)


def stationary_unitary_params(angles: CanonicalAngles) -> tuple[UnitaryParams, UnitaryParams]:
    """A concrete optimal parameter pair built from the stationary angles."""
    theta_sum, theta_diff = stationary_angles(angles)
    th1 = 0.5 * (theta_sum + theta_diff)
    th2 = 0.5 * (theta_sum - theta_diff)
    return (
        UnitaryParams(psi=0.0, phi=0.0, theta=th1),
        UnitaryParams(psi=0.0, phi=0.0, theta=th2),
    )


def nonlocality_region(e: float, delta: float) -> bool:
    """True iff the closed-form maximum violates the LHV bound 2."""
    return violates(max_chsh_closed_form(e, delta))


def entanglement_threshold() -> float:
    """½(1-√(2√2-2)): above this E, every nonzero incompatibility yields
    Bell nonlocality; at the threshold the Δ=1 boundary sits exactly at 2."""
    return 0.5 * (1.0 - sqrt(2.0 * sqrt(2.0) - 2.0))


@dataclass(frozen=True)
class MonotonicityReport:
    """Direction of the closed-form maximum as a function of Δ on [0, 1].

    monotone is False when the maximum lies inside (0, 1); then
    extremum_delta is that Δ* and increasing is None.
    """

    monotone: bool
    increasing: bool | None
    extremum_delta: float | None


def incompatibility_monotonicity(e: float) -> MonotonicityReport:
    """Shape of f(Δ) = (2-X)√(1+Δ) + X√(1-Δ) at entanglement E.

    f is concave with f'(Δ*) = 0 at Δ* = 2C/(1+C²), where C = 1-X =
    2√(E(1-E)) is the concurrence: increasing for E = 1/2 (Δ* = 1),
    decreasing for E = 0 (Δ* = 0), an interior maximum in between.
    """
    c = _concurrence(e)
    d_star = 2.0 * c / (1.0 + c * c)
    if d_star == 1.0:
        return MonotonicityReport(monotone=True, increasing=True, extremum_delta=None)
    if d_star == 0.0:
        return MonotonicityReport(monotone=True, increasing=False, extremum_delta=None)
    return MonotonicityReport(monotone=False, increasing=None, extremum_delta=d_star)
