"""Exception taxonomy.

Three tiers, matching the command-line exit codes: configuration problems
(exit 1), numerical/domain failures (exit 2), verification failures (exit 3).
Every concrete class carries a stable ``code`` string equal to its class name,
which is what the CLI prints in its machine-readable error output.
"""


__all__ = [
    "RototrapError",
    "ConfigError",
    "NumericError",
    "VerificationError",
    "InvalidConfig",
    "NonSymmetricPotential",
    "NonPositivePotential",
    "ZeroAxis",
    "NegativeOmega",
    "WrongDimension",
    "OddPowersPresent",
    "AmbiguousClassification",
    "BracketTooSmall",
    "DefectiveMatrix",
    "DegenerateModeVector",
    "StepTooLarge",
    "NonFiniteState",
    "SingularD",
    "SingularModeMatrix",
    "InInstabilityRegion",
    "NoValidRoot",
    "ComplexKappa",
    "NotNormalizable",
    "NotInSpan",
    "InsufficientSpan",
    "ConvergenceFailure",
    "NotSymmetric",
    "NearSingular",
]


class RototrapError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2

    @property
    def code(self):
        return type(self).__name__


class ConfigError(RototrapError):
    """A configuration is structurally or physically invalid."""

    exit_code = 1


class NumericError(RototrapError):
    """A numerical routine hit a domain or conditioning failure."""

    exit_code = 2


class VerificationError(RototrapError):
    """A self-check battery reported at least one failing property."""

    exit_code = 3


# -- configuration -----------------------------------------------------------

class InvalidConfig(ConfigError):
    """Malformed config document (unknown/missing fields, wrong shapes)."""

    def __init__(self, message, errors=None):
        super().__init__(message)
        self.errors = list(errors) if errors else [message]


class NonSymmetricPotential(ConfigError):
    pass


class NonPositivePotential(ConfigError):
    pass


class ZeroAxis(ConfigError):
    pass


class NegativeOmega(ConfigError):
    pass


class WrongDimension(ConfigError):
    """An operation restricted to axis-aligned planar configs got a 3D one."""


# -- numerics / domain -------------------------------------------------------

class OddPowersPresent(NumericError):
    """Characteristic polynomial of the dynamics matrix has odd-power terms."""


class AmbiguousClassification(NumericError):
    """A cubic root sits within tolerance of zero or of the real axis.

    ``side`` records which instability the boundary belongs to
    ("exponential" or "oscillatory") and ``root_index`` the offending root.
    """

    def __init__(self, message, side=None, root_index=None):
        super().__init__(message)
        self.side = side
        self.root_index = root_index


class BracketTooSmall(NumericError):
    pass


class DefectiveMatrix(NumericError):
    pass


class DegenerateModeVector(NumericError):
    pass


class StepTooLarge(NumericError):
    pass


class NonFiniteState(NumericError):
    """Integration overflowed. Carries the finite part of the trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class SingularD(NumericError):
    pass


class SingularModeMatrix(NumericError):
    pass


class InInstabilityRegion(NumericError):
    pass


class NoValidRoot(NumericError):
    pass


class ComplexKappa(NumericError):
    pass


class NotNormalizable(NumericError):
    pass


class NotInSpan(NumericError):
    pass


class InsufficientSpan(NumericError):
    pass


class ConvergenceFailure(NumericError):
    pass


class NotSymmetric(NumericError):
    pass


class NearSingular(NumericError):
    """A matrix failed the inversion guard.

    ``index`` is the position of the first failing matrix when a stack of
    matrices was inverted, else None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
