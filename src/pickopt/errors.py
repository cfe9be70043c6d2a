"""Exception types shared across the package.

The CLI maps these onto stable exit codes: validation problems exit
with 2, desk scale resource bounds exit with 3.
"""


class PickoptError(Exception):
    """Base class for all package errors."""


class ValidationError(PickoptError):
    """Bad input data: layout parameters, instance files, assignments."""


class VariantMismatchError(ValidationError):
    """A layout's block count has no auxiliary graph, or does not fit a kind."""


class UnsupportedFamilyError(ValidationError):
    """Constraint family is undefined for the given layout or model kind."""


class EncodingError(PickoptError):
    """A walk cannot be encoded into formulation variable space."""


class SeparationError(ValidationError):
    """Separation rejected its input, e.g. a fractional assignment."""


class OracleSizeError(PickoptError):
    """Instance exceeds a documented desk-scale enumeration bound.

    Never relaxed silently; callers either shrink the instance or use a
    heuristic mode.
    """
