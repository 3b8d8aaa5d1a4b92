import hashlib
import math
import re

import numpy as np
import pytest

from binflux import (
    attenuation_for_target,
    baseline_error_curve,
    optimal_detection_probability,
    relative_error_factor,
    shots_to_relative_error,
    simulate_baseline,
)
from binflux.baseline import Z_90


def test_error_factor_at_half():
    assert relative_error_factor(0.5) == pytest.approx(2.0402788931935794, abs=1e-15)


def test_error_factor_at_point_eight():
    # sqrt(.8) / (.2 * ln 5)
    expected = math.sqrt(0.8) / (0.2 * math.log(5.0))
    assert relative_error_factor(0.8) == pytest.approx(expected, abs=1e-15)
    assert relative_error_factor(0.8) == pytest.approx(2.778694300941351, abs=1e-12)


def test_error_factor_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            relative_error_factor(bad)


def test_optimal_probability_on_default_grid():
    assert optimal_detection_probability() == pytest.approx(0.45)


def test_optimal_probability_custom_grid():
    grid = np.array([0.2, 0.5, 0.8])
    assert optimal_detection_probability(grid) == pytest.approx(0.5)


def test_shots_to_target_both_conventions():
    assert shots_to_relative_error(0.1, convention="half") == 1127
    assert shots_to_relative_error(0.1, convention="full") == 4506
    assert shots_to_relative_error(0.1) == 4506


def test_shots_to_target_validation():
    with pytest.raises(ValueError):
        shots_to_relative_error(0.0)
    with pytest.raises(ValueError):
        shots_to_relative_error(0.1, convention="double")
    # No gate count exists for a non-finite target, and below about 5e-154 (full width) it overflows a float.
    for target in (math.nan, math.inf, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="target"):
            shots_to_relative_error(target)


def test_relative_error_after_matches_curve():
    curve = baseline_error_curve(100.0, 50)
    assert curve.shape == (50,)
    assert curve[0] == pytest.approx(2.0 * Z_90 * relative_error_factor(0.5))
    assert curve[24] == pytest.approx(2.0 * Z_90 * relative_error_factor(0.5) / 5.0)
    assert np.all(np.diff(curve) < 0.0)


def test_curve_crosses_target_at_shot_count():
    curve = baseline_error_curve(100.0, 5000)
    first = int(np.argmax(curve <= 0.1)) + 1
    assert first == shots_to_relative_error(0.1)


def test_curve_requires_bright_pulse():
    with pytest.raises(ValueError, match=r"^mu_true must be a real number in \(4, inf\), got 2\.0$"):
        baseline_error_curve(2.0, 100)
    with pytest.raises(ValueError, match=r"^mu_true must be a real number in \(4, inf\), got 1\.0$"):
        simulate_baseline(1.0, 0.165, 10, 1, seed=1)


@pytest.mark.parametrize("mu", [math.nan, math.inf], ids=["nan", "inf"])
def test_baseline_curves_reject_a_non_finite_mean(mu):
    # NaN once passed "<= 4" and gave a finite curve or all-NaN trials.
    message = f"mu_true must be a real number in (4, inf), got {mu!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        baseline_error_curve(mu, 3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_baseline(mu, 0.1, 3, 1, seed=1)


@pytest.mark.parametrize("mu", [math.nan, math.inf], ids=["nan", "inf"])
def test_attenuation_rejects_a_non_finite_mean(mu):
    # NaN once gave a NaN transmission and inf a transmission of 0.
    with pytest.raises(ValueError, match=f"^{re.escape(f'mu must be a real number in (0, inf), got {mu!r}')}$"):
        attenuation_for_target(mu, 0.1)


def test_attenuation_for_target_value():
    alpha = attenuation_for_target(100.0, 0.165)
    assert alpha == pytest.approx(0.04200892003393608, abs=1e-15)
    assert 1.0 - math.exp(-100.0 * alpha * 0.165) == pytest.approx(0.5)


def test_attenuation_unreachable_target():
    # A dim pulse cannot be attenuated *up* to a 50% click rate.
    with pytest.raises(ValueError, match="transmission"):
        attenuation_for_target(1.0, 0.165)


def test_attenuation_argument_validation():
    with pytest.raises(ValueError):
        attenuation_for_target(100.0, 0.165, p_target=1.0)
    with pytest.raises(ValueError):
        attenuation_for_target(0.0, 0.165)
    with pytest.raises(ValueError):
        attenuation_for_target(100.0, 0.0)


def test_simulated_curve_matches_analytic():
    sim = simulate_baseline(100.0, 0.165, max_shots=4000, n_trials=20, seed=7)
    assert sim.shape == (20, 4000)
    med = np.nanmedian(sim[:, 100:], axis=0)
    analytic = baseline_error_curve(100.0, 4000)[100:]
    # Late in the run the empirical medians track the analytic curve.
    assert med[-1] == pytest.approx(analytic[-1], rel=0.10)
    assert abs(np.log(med[1899] / analytic[1899])) < 0.15


def test_simulated_curve_deterministic():
    a = simulate_baseline(100.0, 0.165, max_shots=64, n_trials=3, seed=11)
    b = simulate_baseline(100.0, 0.165, max_shots=64, n_trials=3, seed=11)
    np.testing.assert_array_equal(a, b)
    c = simulate_baseline(100.0, 0.165, max_shots=64, n_trials=3, seed=12)
    assert not np.array_equal(a, c, equal_nan=True)


def test_simulated_curve_nan_while_degenerate():
    sim = simulate_baseline(100.0, 0.165, max_shots=16, n_trials=8, seed=3)
    # After one gate the record is always all clicks or no clicks.
    assert np.all(np.isnan(sim[:, 0]))


# sha256 of simulate_baseline's output as <f8 (NaN where the record is
# still degenerate), recorded for the mc4 stream from the float test
# u < p_target, u = (w >> 11) * 2**-53 on each trial's stream words w; the
# integer-lane test must give the same curves bit for bit.
BASELINE_PINS = [
    ((100.0, 0.5, 400, 20, 7), {}, "38ec8a067de1ceb82a6592b062077b42234c65a26865212ecc91fa59e3c4c2d1"),
    (
        (37.5, 0.8, 1000, 5, 2026),
        {"p_target": 0.3, "convention": "half"},
        "443f87fd5ad3aac1dcbaaa50b15665fa4ce94c8e141f933e6420843e70c09f3f",
    ),
]


@pytest.mark.parametrize("args, kwargs, expected", BASELINE_PINS, ids=["mu100", "mu37.5-p0.3-half"])
def test_simulated_curve_is_pinned(args, kwargs, expected):
    sim = simulate_baseline(*args, **kwargs)
    assert hashlib.sha256(np.asarray(sim, dtype="<f8").tobytes()).hexdigest() == expected
