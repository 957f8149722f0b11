"""Exception types shared across the package."""


class ChshLabError(Exception):
    """Base class for every error raised by chshlab."""


class NotHermitianError(ChshLabError, ValueError):
    """Matrix expected to be Hermitian deviates beyond tolerance.

    `defect` is the measured Hermiticity defect max|M - M†| (inf for a
    non-square M) when that is the reason for the refusal, else None.
    """

    def __init__(self, message: str, defect: float | None = None):
        super().__init__(message)
        self.defect = defect


class NonUnitAxisError(ChshLabError, ValueError):
    """Bloch axis is not a unit vector."""


class OutOfRangeError(ChshLabError, ValueError):
    """Scalar parameter outside its admissible interval."""


class NotUnbiasedError(ChshLabError, ValueError):
    """POVM effect has trace != 1, outside the unbiased family."""


class InvalidTableError(ChshLabError, ValueError):
    """Born table that is not a finite real array of shape (2, 2, 2, 2)."""


class NotInvolutiveError(ChshLabError, ValueError):
    """Observable does not square to the identity."""


class InvalidStateError(ChshLabError, ValueError):
    """Density matrix violates Hermiticity, trace or positivity."""


class NonRealTraceError(ChshLabError, ArithmeticError):
    """Trace that must be real carries a large imaginary part.

    Raised only when operator assembly went wrong, never for valid input.
    """


class NonFiniteOutputError(ChshLabError, ValueError):
    """Result holds NaN or ±inf, which the output formats do not write."""


class DegenerateDeltaError(ChshLabError, ValueError):
    """Stationarity relations are singular at full incompatibility."""
