"""Exception types shared across the package."""


class OrliczError(Exception):
    """Base class for all package errors."""


class ConformanceError(OrliczError):
    """A field does not conform to the mesh it is evaluated on."""


class GeometryError(OrliczError):
    """Domain geometry cannot support the requested construction."""


class BracketRangeError(OrliczError):
    """A monotone bracketing search ran out of representable range."""


class ZeroDenominatorError(OrliczError):
    """A quotient with an underflowed or vanishing denominator."""


class ConfigError(OrliczError):
    """Malformed run configuration (bad key, bad value, bad file)."""
