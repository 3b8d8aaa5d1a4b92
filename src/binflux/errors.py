"""Exception types shared across the package."""


class BinfluxError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(BinfluxError):
    """A configuration value is out of range or inconsistent.

    The message names the offending field. A bad function argument raises
    ValueError instead.
    """


class ModelUnsupportedError(BinfluxError):
    """A click count lies above the stability cutoff, where inversion would depend on the grid bound.

    posterior_multi raises it for a count above its max_admissible_n, which
    the infer command sets to the cutoff it applies.
    """


class DegenerateEvidenceError(BinfluxError):
    """The observed data has zero probability under every candidate value.

    relative_error_curve also raises it when the stability cutoff rejects
    nearly every simulated shot.
    """


class MatrixFormatError(BinfluxError):
    """A response-matrix file could not be parsed.

    The message carries line and field diagnostics.
    """
