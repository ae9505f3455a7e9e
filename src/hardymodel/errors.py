"""Exception types shared across the package."""


class HardyModelError(Exception):
    """Base class for all package errors."""


class NotHermitian(HardyModelError):
    """Matrix deviates from Hermitian symmetry beyond the tolerance."""


class NegativeEigenvalue(HardyModelError):
    """Eigenvalue below the admissible clamp window of a PSD square root."""


class SingularShift(HardyModelError):
    """I - z*T is numerically singular."""


class DimensionMismatch(HardyModelError):
    """Operands live on incompatible spaces, or an argument lies outside its domain."""


class ZeroDefect(HardyModelError):
    """The adjoint defect space is trivial; no analytic model exists here."""


class SizeOverflow(HardyModelError):
    """Requested basis exceeds the configured size cap."""


class DegreeOverflow(HardyModelError):
    """Symbol or exponent does not fit inside the truncation degree."""


class UnsafeDegree(HardyModelError):
    """Requested computation leaves the exact (safe-degree) domain."""


class NotInClass(HardyModelError):
    """Contraction or tuple fails the class membership its construction needs."""


class NotInner(HardyModelError):
    """Symbol's multiplication operator is not isometric on safe degrees."""


class AmbiguousWandering(HardyModelError):
    """Wandering subspace has unexpected dimension for scalar coefficients."""


class ScenarioError(HardyModelError):
    """Scenario file is malformed or references unknown checks."""


class UnknownCheck(ScenarioError):
    """Scenario names a check that is not in the registry."""
