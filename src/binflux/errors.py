"""Exception types shared across the package."""


class BinfluxError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(BinfluxError):
    """A configuration value is out of range or inconsistent.

    The message names the offending field.
    """


class ModelUnsupportedError(BinfluxError):
    """The requested computation is not available for this model.

    Raised when a click count lies above the stability cutoff, where
    inversion would depend on the grid bound.
    """


class DegenerateEvidenceError(BinfluxError):
    """The observed data has zero probability under every candidate value."""


class MatrixFormatError(BinfluxError):
    """A response-matrix file could not be parsed.

    The message carries line and field diagnostics.
    """
