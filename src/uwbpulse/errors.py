"""Exception types raised across the toolkit.

Separate classes let callers distinguish bad arguments from
configurations that are numerically unworkable (exit code 2 in the CLI).
"""


class UwbPulseError(Exception):
    """Base class for all toolkit errors."""


class ResolutionError(UwbPulseError):
    """Time grid too coarse for the requested operation."""


class ConfigurationError(UwbPulseError):
    """Parameters violate a documented precondition."""


class GridAlignmentError(ConfigurationError):
    """Times or shifts are not whole numbers of grid steps."""


class DivisionHazardError(UwbPulseError):
    """A spectral ratio was requested where the denominator vanishes."""


class MaskFitError(UwbPulseError):
    """Trigonometric fit of a mask segment cannot be computed reliably."""


class InfeasibleError(UwbPulseError):
    """The constraint set of the filter program is empty."""


class FactorizationError(UwbPulseError):
    """Spectral factorization failed (spectrum too close to zero, or taps
    whose autocorrelation misses the target)."""


class UnstableGeneratorError(UwbPulseError):
    """Pulse translates are not a Riesz basis at the requested shift."""


class SingularGramError(UwbPulseError):
    """Correlator Gram matrix is not positive definite."""
