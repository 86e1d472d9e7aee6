"""Exception types shared across the toolkit.

All guard violations raise one of these so the CLI can map them onto
machine-readable error JSON and distinct exit codes.
"""


class DipolememError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(DipolememError, ValueError):
    """Invalid physical parameter or malformed schedule/grid."""


class ConfigError(DipolememError, ValueError):
    """Malformed scenario configuration (file-level problems)."""


class StabilityError(DipolememError, RuntimeError):
    """Time step too coarse for the stiffest rate in the model."""


class ResolutionError(DipolememError, RuntimeError):
    """Grid too coarse to resolve the kernel / transform structure."""


class SingularTransformError(DipolememError, RuntimeError):
    """Effective-field transform requested where the coupling vanishes
    but the field does not."""


class UnsupportedCaseError(DipolememError, NotImplementedError):
    """A closed form was requested outside its domain of validity."""
