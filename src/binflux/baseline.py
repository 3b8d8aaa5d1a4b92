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

from ._rng import _LANE_BITS, derive_seed, lane_threshold, seed_sequence, uniform_lanes
from .errors import _integer, _real, _shown

Z_90 = 1.645  # two-sided 90% normal quantile, one tail at 5%

_CONVENTION_FACTOR = {"half": 1.0, "full": 2.0}

# Below a few photons per pulse the attenuate-to-50% recipe stops making
# sense (the required transmission exceeds 1), so the comparison is only
# defined for a mu_true above this.
_MU_BRIGHT = 4.0


def _z_factor(convention: str) -> float:
    try:
        return _CONVENTION_FACTOR[convention] * Z_90
    except KeyError:
        raise ValueError(f"convention must be 'half' or 'full', got {_shown(convention)}") from None


def attenuation_for_target(mu: float, efficiency: float, p_target: float = 0.5) -> float:
    """Attenuator transmission that puts the gate at the target click probability."""
    p_target = _real(p_target, "p_target", 0.0, 1.0)
    mu = _real(mu, "mu", 0.0)
    efficiency = _real(efficiency, "efficiency", 0.0, 1.0, "(]")
    alpha = -math.log(1.0 - p_target) / (mu * efficiency)
    if alpha > 1.0:
        raise ValueError(
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
    p = _real(p, "p", 0.0, 1.0)
    return math.sqrt(p) / ((1.0 - p) * math.log(1.0 / (1.0 - p)))


def optimal_detection_probability(grid: np.ndarray | None = None) -> float:
    """Grid argmin of the per-shot error factor (default grid 0.05..0.95 step 0.05)."""
    if grid is None:
        grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
    vals = [relative_error_factor(float(p)) for p in grid]
    return float(grid[int(np.argmin(vals))])


def shots_to_relative_error(target: float, p: float = 0.5, convention: str = "full") -> int:
    """Gates needed before the expected relative width drops to the target."""
    target = _real(target, "target", 0.0)
    try:
        return math.ceil((_z_factor(convention) * relative_error_factor(p) / target) ** 2)
    except OverflowError:
        raise ValueError(f"target {target!r} is so small that its gate count overflows a float") from None


def baseline_error_curve(
    mu_true: float, max_shots: int, p_target: float = 0.5, convention: str = "full"
) -> np.ndarray:
    """Analytic relative-width curve, index k - 1 holding the value after k gates."""
    _real(mu_true, "mu_true", _MU_BRIGHT)
    k = np.arange(1, _integer(max_shots, "max_shots", 1) + 1)
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
    mu_true = _real(mu_true, "mu_true", _MU_BRIGHT)
    max_shots = _integer(max_shots, "max_shots", 1)
    n_trials = _integer(n_trials, "n_trials", 1)
    alpha = attenuation_for_target(mu_true, efficiency, p_target)
    scale = alpha * efficiency
    z = _z_factor(convention)
    out = np.full((n_trials, max_shots), np.nan)
    k = np.arange(1, max_shots + 1, dtype=float)
    detect = lane_threshold(p_target)
    for t in range(n_trials):
        lanes = uniform_lanes(seed_sequence(derive_seed(seed, t)), 0, max_shots, 1)[:, 0] >> (64 - _LANE_BITS)
        n_det = np.cumsum(lanes < detect)
        p_hat = n_det / k
        good = (n_det > 0) & (n_det < k)
        delta = np.where(
            good, z * np.sqrt(n_det) / k / np.where(good, (1.0 - p_hat) * scale, 1.0), np.nan
        )
        out[t] = delta / mu_true
    return out
