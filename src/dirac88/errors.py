"""Exception types shared across the package."""


class Dirac88Error(Exception):
    """Base class for package errors."""


class ConstraintViolation(Dirac88Error):
    """A wave-function component that must stay zero has grown past tolerance."""


class GridMismatch(Dirac88Error):
    """Two objects defined on incompatible grids were combined."""


class FitError(Dirac88Error):
    """Frequency fit could not isolate a single dominant oscillation line."""


class ConfigError(Dirac88Error):
    """A run configuration is malformed; the message names the offending key."""
