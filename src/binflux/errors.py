"""Exception types shared across the package, and the one rule for integer arguments."""

import numpy as np


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


def _integer(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """value as an int, or ValueError naming name unless it is an integer in [lo, hi].

    A numpy integer is an integer. bool is an int subclass, but True is no
    seed, count or bound, and a float is refused even when it is whole.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)
