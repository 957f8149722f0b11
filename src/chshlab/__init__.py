"""chshlab: CHSH-scenario computations for qubit pairs.

Joint measurability of binary qubit POVMs, spectral CHSH maxima, Born
statistics with seeded sampling, and the closed-form nonlocality boundary
over entanglement and measurement incompatibility.
"""

from ._kernels import BACKEND
from .chsh import (
    ChshReport,
    SampleEstimate,
    born_table,
    check_state,
    chsh_from_table,
    chsh_operator,
    chsh_value,
    correlators_from_table,
    landau_bound,
    max_over_states,
    sample_estimate,
    state_from_vector,
)
from .compat import (
    JmMethod,
    JmStatus,
    JmVerdict,
    ParentPovm,
    busch_criterion,
    coexistence_criterion,
    parent_povm_search,
    sharpness_threshold,
)
from .entanglement import (
    CanonicalAngles,
    MonotonicityReport,
    SchmidtState,
    UnitaryParams,
    canonical_axes,
    canonical_setting,
    entanglement_threshold,
    incompatibility_monotonicity,
    local_unitary,
    max_chsh_closed_form,
    max_chsh_over_unitaries,
    nonlocality_region,
    rotated_chsh,
    schmidt_state,
    stationarity_ratios,
    stationary_angles,
    stationary_unitary_params,
)
from .errors import (
    ChshLabError,
    DegenerateDeltaError,
    InvalidStateError,
    InvalidTableError,
    NonFiniteOutputError,
    NonRealTraceError,
    NonUnitAxisError,
    NotHermitianError,
    NotInvolutiveError,
    NotUnbiasedError,
    OutOfRangeError,
)
from .linalg import Spectrum, eig_hermitian, kron
from .measurement import (
    BinaryPovm,
    ChshSetting,
    bloch_observable,
    commutator_tensor,
    incompatibility_degree,
    noisy_family_povms,
    noisy_pauli_povm,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ChshReport", "SampleEstimate", "born_table", "check_state", "chsh_from_table",
    "chsh_operator", "chsh_value", "correlators_from_table", "landau_bound",
    "max_over_states", "sample_estimate", "state_from_vector",
    "JmMethod", "JmStatus", "JmVerdict", "ParentPovm", "busch_criterion",
    "coexistence_criterion", "parent_povm_search", "sharpness_threshold",
    "CanonicalAngles", "MonotonicityReport", "SchmidtState", "UnitaryParams",
    "canonical_axes", "canonical_setting", "entanglement_threshold",
    "incompatibility_monotonicity", "local_unitary", "max_chsh_closed_form",
    "max_chsh_over_unitaries", "nonlocality_region", "rotated_chsh", "schmidt_state",
    "stationarity_ratios", "stationary_angles", "stationary_unitary_params",
    "ChshLabError", "DegenerateDeltaError", "InvalidStateError", "InvalidTableError",
    "NonFiniteOutputError", "NonRealTraceError", "NonUnitAxisError", "NotHermitianError",
    "NotInvolutiveError", "NotUnbiasedError", "OutOfRangeError",
    "Spectrum", "eig_hermitian", "kron",
    "BinaryPovm", "ChshSetting", "bloch_observable", "commutator_tensor",
    "incompatibility_degree", "noisy_family_povms", "noisy_pauli_povm",
    "__version__",
]
