"""Exception types shared across the package, and the one rule each for integers, real numbers and sequences.

_integer owns every integer and _real every real number that enters the
package: a function argument (ValueError), a model field or a config value
(ConfigurationError). Each returns a plain int or float, which callers store.
_items owns every sequence field of a model and returns its items as a tuple.
"""

import math
from numbers import Real

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

    relative_error_curve also raises it when K = P(N <= cutoff | mu_true) of
    the law it draws from is below 2^-10 (inference._CURVE_MIN_ADMISSIBLE).
    """


class MatrixFormatError(BinfluxError):
    """A response-matrix file could not be parsed.

    The message carries line and field diagnostics.
    """


def _shown(value) -> str:
    """repr(value) for a refusal; an int too long for repr (Python's int-to-str digit limit) by its digit count."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
    digits = int((value.bit_length() - 1) * math.log10(2))  # at most the count, for any rounding
    while abs(value) >= 10**digits:
        digits += 1
    return f"an int of {digits} digits"


def _integer(value, name: str, lo: int = 0, hi: int | None = None, error: type[Exception] = ValueError) -> int:
    """value as an int, or error naming name unless it is an integer in [lo, hi].

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
        raise error(f"{name} must be an integer {bound}, got {_shown(value)}")
    return int(value)


def _real(value, name: str, lo=-math.inf, hi=math.inf, brackets="()", error: type[Exception] = ValueError) -> float:
    """value as a float, or error naming name unless it is a real number between lo and hi.

    brackets marks each end open or closed, "(" or "[" then ")" or "]"; by
    default every finite number is in. A numpy scalar is a real number, but
    a bool, a string (one that spells a number too), NaN and an int too
    large for a double are not.
    """
    if not (
        isinstance(value, bool)
        or not isinstance(value, (float, int, Real))  # float and int first: the ABC check is slow
        or not (lo < value if brackets[0] == "(" else lo <= value)
        or not (value < hi if brackets[1] == ")" else value <= hi)
    ):
        try:
            return float(value)
        except OverflowError:  # an int beyond the largest double
            pass
    raise error(f"{name} must be a real number in {brackets[0]}{lo:g}, {hi:g}{brackets[1]}, got {_shown(value)}")


def _items(value, name: str) -> tuple:
    """value's items as a tuple, or ConfigurationError naming name unless it is a sequence; a string is not."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name}: expected a sequence, got {_shown(value)}")
