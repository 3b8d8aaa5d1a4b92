"""Single-pixel baseline: one gated detector behind a calibrated attenuator.

The reference technique for measuring a mean photon number with a detector
that cannot count: attenuate the pulse until the per-gate detection
probability sits near its optimum, record the click fraction over many
gates, and invert p = 1 - exp(-mu * alpha * eta). Its precision after a
finite number of gates is what the multiplexed detector competes against.

Width conventions: the multiplexed estimator reports a full credible
interval, so the comparable baseline figure is the full confidence width
2 * z * sigma ("full", the default). "half" gives the one-sided z * sigma
margin instead. Both appear in the literature; see the README discussion.
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import derive_seed, lane_threshold, philox_key, uniform_lanes
from .errors import ConfigurationError

Z_90 = 1.645  # two-sided 90% normal quantile, one tail at 5%

_CONVENTION_FACTOR = {"half": 1.0, "full": 2.0}


def _z_factor(convention: str) -> float:
    try:
        return _CONVENTION_FACTOR[convention] * Z_90
    except KeyError:
        raise ValueError(f"convention must be 'half' or 'full', got {convention!r}") from None


def attenuation_for_target(mu: float, efficiency: float, p_target: float = 0.5) -> float:
    """Attenuator transmission that puts the gate at the target click probability."""
    if not (0.0 < p_target < 1.0):
        raise ValueError(f"p_target must lie in (0, 1), got {p_target!r}")
    if mu <= 0.0 or not (0.0 < efficiency <= 1.0):
        raise ValueError("mu must be > 0 and efficiency in (0, 1]")
    alpha = -math.log(1.0 - p_target) / (mu * efficiency)
    if alpha > 1.0:
        raise ConfigurationError(
            f"attenuation: reaching p={p_target} at mu={mu} with efficiency {efficiency} "
            f"would need transmission {alpha:.4g} > 1; the pulse is too dim to attenuate to target"
        )
    return alpha


def relative_error_factor(p: float) -> float:
    """Per-shot relative error factor f(p) = sqrt(p) / ((1 - p) * ln(1 / (1 - p))).

    The relative precision after N gates at click probability p is
    z * f(p) / sqrt(N); f is minimized near p = 0.45, barely below its
    value at the conventional p = 0.5 operating point.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return math.sqrt(p) / ((1.0 - p) * math.log(1.0 / (1.0 - p)))


def optimal_detection_probability(grid: np.ndarray | None = None) -> float:
    """Grid argmin of the per-shot error factor (default grid 0.05..0.95 step 0.05)."""
    if grid is None:
        grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
    vals = [relative_error_factor(float(p)) for p in grid]
    return float(grid[int(np.argmin(vals))])


def shots_to_relative_error(target: float, p: float = 0.5, convention: str = "full") -> int:
    """Gates needed before the expected relative width drops to the target."""
    if target <= 0.0:
        raise ValueError(f"target must be > 0, got {target!r}")
    return math.ceil((_z_factor(convention) * relative_error_factor(p) / target) ** 2)


def _check_mu_bright(mu_true: float) -> None:
    # Below a few photons per pulse the attenuate-to-50% recipe stops making
    # sense (the required transmission exceeds 1), so the comparison is only
    # defined for bright pulses.
    if mu_true <= 4.0:
        raise ValueError(
            f"mu_true must exceed 4 for the attenuated single-pixel scheme, got {mu_true!r}"
        )


def baseline_error_curve(
    mu_true: float, max_shots: int, p_target: float = 0.5, convention: str = "full"
) -> np.ndarray:
    """Analytic relative-width curve, index k - 1 holding the value after k gates."""
    _check_mu_bright(mu_true)
    if max_shots < 1:
        raise ValueError(f"max_shots must be >= 1, got {max_shots}")
    k = np.arange(1, max_shots + 1)
    return _z_factor(convention) * relative_error_factor(p_target) / np.sqrt(k)


def simulate_baseline(
    mu_true: float,
    efficiency: float,
    max_shots: int,
    n_trials: int,
    seed: int,
    *,
    p_target: float = 0.5,
    convention: str = "full",
) -> np.ndarray:
    """Monte Carlo version of the error curve, shape (n_trials, max_shots).

    Each trial runs the actual protocol: attenuate to the target click
    probability, draw gate outcomes, and at each prefix of k gates with
    n_det clicks propagate the Poissonian counting error sqrt(n_det)
    through the inversion: z * sqrt(n_det) / k / ((1 - p_hat) * eta * alpha).
    Entries where the click record is still saturated or silent are NaN.
    """
    _check_mu_bright(mu_true)
    if max_shots < 1 or n_trials < 1:
        raise ValueError("max_shots and n_trials must be >= 1")
    alpha = attenuation_for_target(mu_true, efficiency, p_target)
    scale = alpha * efficiency
    z = _z_factor(convention)
    out = np.full((n_trials, max_shots), np.nan)
    k = np.arange(1, max_shots + 1, dtype=float)
    detect = lane_threshold(p_target)
    for t in range(n_trials):
        lanes = uniform_lanes(philox_key(derive_seed(seed, t)), 0, max_shots, 1)[:, 0]
        n_det = np.cumsum(lanes < detect)
        p_hat = n_det / k
        good = (n_det > 0) & (n_det < k)
        delta = np.where(
            good, z * np.sqrt(n_det) / k / np.where(good, (1.0 - p_hat) * scale, 1.0), np.nan
        )
        out[t] = delta / mu_true
    return out
