"""Semantic exception hierarchy shared by all cwrmt modules."""


class CwrmtError(Exception):
    """Base class for all cwrmt errors."""


class DomainError(CwrmtError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrabilityError(CwrmtError):
    """Density failed to normalize (divergent or non-converging quadrature)."""


class ClassificationError(CwrmtError):
    """Potential minimum could not be located or classified up to order 12."""


class ResourceError(CwrmtError):
    """Enumeration guard tripped (problem size too large for exact methods)."""


class UnsupportedEnsembleError(CwrmtError):
    """Operation not defined for the requested ensemble kind."""


class NumericError(CwrmtError):
    """Numerical routine failed to meet its accuracy contract."""


class ConfigError(CwrmtError, ValueError):
    """Invalid experiment configuration."""
