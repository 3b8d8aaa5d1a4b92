import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binflux import (
    DegenerateEvidenceError,
    DetectorSpec,
    ModelUnsupportedError,
    MultiplexerSpec,
    Posterior,
    ResponseMatrix,
    SystemConfig,
    UniformLoss,
    build_matrix,
    credible_interval,
    interval_to_energy,
    posterior_multi,
    posterior_single,
    relative_error_curve,
    stability_max_n,
    total_variation,
)
import binflux.inference as inference
from binflux.cli import main
from binflux.response_matrix import RowProvenance, save_matrix


def _hand_matrix(rows):
    rows = np.asarray(rows, dtype=float)
    system = SystemConfig(
        name="hand",
        multiplexer=MultiplexerSpec(loop_delays=(1e-9,), transmission=UniformLoss(0.0)),
        detector=DetectorSpec(efficiency=0.5, dark_prob_per_gate=(0.0, 0.0), gate_width=1e-9, deadtime=0.0),
    )
    return ResponseMatrix(
        system=system,
        rows=rows,
        provenance=tuple(RowProvenance(kind="exact") for _ in range(rows.shape[0])),
        method="exact",
    )


def test_posterior_single_normalizes_column():
    m = _hand_matrix([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.1, 0.9, 0.0]])
    post = posterior_single(m, 1)
    assert np.allclose(post.probs, np.array([0.5, 0.8, 0.9]) / 2.2)
    assert post.probs.sum() == pytest.approx(1.0)
    # The evidence under the flat prior 1/3 over the three rows.
    assert post.log_evidence == pytest.approx(math.log(2.2 / 3), rel=1e-12, abs=0)


def test_posterior_identical_rows_is_uniform():
    m = _hand_matrix([[0.3, 0.7, 0.0], [0.3, 0.7, 0.0]])
    post = posterior_single(m, 1)
    assert np.allclose(post.probs, 0.5)


def test_posterior_single_mu_zero_point_mass():
    m = _hand_matrix([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]])
    post = posterior_single(m, 1)
    assert np.allclose(post.probs, [0.0, 1.0])


def test_posterior_zero_column_degenerate():
    m = _hand_matrix([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]])
    with pytest.raises(DegenerateEvidenceError):
        posterior_single(m, 2)


def test_posterior_count_out_of_range():
    m = _hand_matrix([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]])
    with pytest.raises(ValueError):
        posterior_single(m, 3)
    with pytest.raises(ValueError):
        posterior_single(m, -1)


def test_mode_ties_toward_smaller_mu():
    post = Posterior(probs=np.array([0.2, 0.4, 0.4]), log_evidence=0.0)
    assert post.mode == 1


def test_credible_interval_hand_posterior():
    post = Posterior(probs=np.array([0.05, 0.9, 0.05]), log_evidence=0.0)
    iv = credible_interval(post, 0.90)
    assert (iv.lo, iv.hi, iv.width) == (1, 1, 1)
    assert iv.mass == pytest.approx(0.9)
    # Needing more mass, the tie between the equal neighbors extends left.
    iv95 = credible_interval(post, 0.95)
    assert (iv95.lo, iv95.hi, iv95.width) == (0, 1, 2)
    assert iv95.mass == pytest.approx(0.95)


def test_credible_interval_level_validation():
    post = Posterior(probs=np.array([1.0]), log_evidence=0.0)
    with pytest.raises(ValueError):
        credible_interval(post, 0.0)
    with pytest.raises(ValueError):
        credible_interval(post, 1.0)


def test_credible_interval_whole_support():
    post = Posterior(probs=np.full(4, 0.25), log_evidence=0.0)
    iv = credible_interval(post, 0.99)
    assert (iv.lo, iv.hi) == (0, 3)
    assert iv.mass == pytest.approx(1.0)


def test_single_shot_anchors_rapid32(rapid32_matrix400):
    post = posterior_single(rapid32_matrix400, 1)
    iv = credible_interval(post, 0.90)
    assert post.mode == 8
    assert (iv.lo, iv.hi) == (1, 33)
    assert iv.width == 33
    assert iv.mass == pytest.approx(0.9035, abs=5e-4)


def test_multi_shot_anchor_rapid32(rapid32_matrix400):
    # One shot is posterior_single, the flat prior's 1 / (mu_max + 1) in log_evidence included.
    for n in (0, 1, 5, 8, 16):
        post = posterior_multi(rapid32_matrix400, [n])
        single = posterior_single(rapid32_matrix400, n)
        column = rapid32_matrix400.rows[:, n]
        assert np.array_equal(post.probs, single.probs)
        assert np.array_equal(post.probs, column / column.sum())
        assert post.log_evidence == single.log_evidence


def test_posterior_multi_order_invariant(rapid32_matrix400):
    a = posterior_multi(rapid32_matrix400, [5, 3, 4, 5])
    b = posterior_multi(rapid32_matrix400, [5, 5, 4, 3])
    # Both reduce to the same click histogram, so they agree to the bit.
    assert np.array_equal(a.probs, b.probs)
    assert a.log_evidence == b.log_evidence


def test_posterior_multi_narrows_with_evidence(rapid32_matrix400):
    seq = [5, 3, 4, 5]
    widths = []
    modes = []
    for k in range(1, len(seq) + 1):
        post = posterior_multi(rapid32_matrix400, seq[:k])
        iv = credible_interval(post, 0.90)
        widths.append(iv.width)
        modes.append(post.mode)
    assert widths[-1] < widths[0]
    assert widths == sorted(widths, reverse=True)
    # All prefixes should point at the mid-tens range implied by 3-5 clicks.
    assert all(20 <= m <= 60 for m in modes)


def test_posterior_multi_validation(rapid32_matrix400):
    with pytest.raises(ValueError, match="at least one"):
        posterior_multi(rapid32_matrix400, [])
    with pytest.raises(ValueError, match=r"\[0, 32\]"):
        posterior_multi(rapid32_matrix400, [33])
    with pytest.raises(ModelUnsupportedError, match="stability cutoff"):
        posterior_multi(rapid32_matrix400, [5, 17], max_admissible_n=16)
    # At or below the cutoff the same sequence is accepted.
    post = posterior_multi(rapid32_matrix400, [5, 16], max_admissible_n=16)
    assert post.probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [2.7, 2.0, 2.5, True, False, np.float64(2.0), np.bool_(True), "3", None])
def test_posterior_rejects_a_click_count_that_is_not_an_integer(rapid32_matrix400, bad):
    # A float, bool or string is never read as a click count: the error names the value.
    message = "^click count must be an integer in \\[0, 32\\], got " + re.escape(repr(bad)) + "$"
    with pytest.raises(ValueError, match=message):
        posterior_single(rapid32_matrix400, bad)
    with pytest.raises(ValueError, match=message):
        posterior_multi(rapid32_matrix400, [3, bad])
    with pytest.raises(ValueError, match=message):
        posterior_multi(rapid32_matrix400, [bad, 1])
    # A good prefix, the bad value, then a second bad value that must not be the one named.
    for seq in ([4, 5, bad], (4, 5, bad, 2.5), iter([4, 5, bad, 2.5])):
        with pytest.raises(ValueError, match=message):
            posterior_multi(rapid32_matrix400, seq)


def test_posterior_rejects_a_non_integer_array(rapid32_matrix400):
    for obs in (np.array([3.9, 1.0]), np.array(["3", "2"]), np.array([True, False])):
        with pytest.raises(ValueError, match="^click count must be an integer in "):
            posterior_multi(rapid32_matrix400, obs)


def test_posterior_accepts_numpy_integers(rapid32_matrix400):
    ref = posterior_multi(rapid32_matrix400, [3, 5, 4])
    for obs in (
        np.array([3, 5, 4]),
        np.array([3, 5, 4], dtype=np.uint8),
        np.array([3, 5, 4], dtype=np.uint64),
        [np.int64(3), np.int32(5), 4],
        (3, 5, 4),
        iter([3, 5, 4]),
        # Signed and unsigned integers mixed make no integer array; each is still a count.
        [3, np.uint64(5), 4],
        [np.int64(3), np.uint64(5), 4],
    ):
        post = posterior_multi(rapid32_matrix400, obs)
        assert np.array_equal(post.probs, ref.probs)
        assert post.log_evidence == ref.log_evidence
    single = posterior_single(rapid32_matrix400, 4)
    for n in (np.int64(4), np.uint8(4), np.array([4])[0]):
        assert np.array_equal(posterior_single(rapid32_matrix400, n).probs, single.probs)


def test_posterior_multi_checks_good_counts_without_a_call_per_observation(monkeypatch, rapid32_matrix400):
    seen = []
    check = inference._integer
    monkeypatch.setattr(inference, "_integer", lambda value, name, *a: seen.append(name) or check(value, name, *a))
    obs = list(range(17)) * 50
    for seq in (obs, tuple(obs), np.array(obs), iter(obs)):
        posterior_multi(rapid32_matrix400, seq, max_admissible_n=16)
    assert seen == ["max_admissible_n"] * 4


@pytest.mark.parametrize("bad", [-1, 33, np.uint64(40), 2**70])
def test_a_click_count_off_the_grid_is_named(rapid32_matrix400, bad):
    # Integers only, so the type pass admits them and the range comparison must refuse them.
    cases = [([4, 5, bad], repr(bad)), (iter([4, 5, bad]), repr(bad)), (np.array([4, 33, 5]), "np.int64(33)")]
    for seq, shown in cases:
        with pytest.raises(ValueError) as exc:
            posterior_multi(rapid32_matrix400, seq)
        assert str(exc.value) == f"click count must be an integer in [0, 32], got {shown}"


def _log_sum_posterior(matrix, obs):
    """The posterior and the log posterior built from one log column per observation."""
    with np.errstate(divide="ignore"):
        logp = np.log(matrix.rows[:, obs]).sum(axis=1)
    post = np.exp(logp - logp.max())
    return Posterior(probs=post / post.sum(), log_evidence=0.0), logp


@given(obs=st.lists(st.integers(0, 32), min_size=2, max_size=300))
@settings(max_examples=60, deadline=None)
def test_histogram_posterior_matches_the_per_observation_log_sum(rapid32_matrix400, obs):
    post = posterior_multi(rapid32_matrix400, obs)
    ref, logp = _log_sum_posterior(rapid32_matrix400, obs)
    kept = post.probs > 0.0
    # Every cell dropped by the exp floor lay at least 700 below the peak.
    assert np.all(logp[~kept] - logp.max() <= -700.0)
    # The log posterior the result implies is the per-observation sum.
    log_norm = post.log_evidence + math.log(post.probs.size)
    got = np.log(post.probs[kept]) + log_norm
    assert np.allclose(got, logp[kept], rtol=1e-12, atol=0.0)
    lse = logp.max() + math.log(np.exp(logp - logp.max()).sum())
    assert log_norm == pytest.approx(lse, rel=1e-12, abs=0)
    assert post.mode == ref.mode
    for level in (0.5, 0.9, 0.99):
        a, b = credible_interval(post, level), credible_interval(ref, level)
        assert (a.lo, a.hi) == (b.lo, b.hi)


def test_posterior_multi_weights_repeated_counts_past_zero_cells():
    # Row 0 cannot give 2 clicks: its log likelihood is -inf times a count.
    m = _hand_matrix([[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    post = posterior_multi(m, [2, 1, 2, 2])
    joint = np.array([0.0, 0.5 * 0.3**3, 0.3 * 0.6**3])
    assert post.probs[0] == 0.0
    assert post.probs == pytest.approx(joint / joint.sum(), rel=1e-12, abs=0)
    assert post.log_evidence == pytest.approx(math.log(joint.sum() / 3), rel=1e-12, abs=0)
    # A count repeated is its column to that power, not its column once.
    assert not np.allclose(posterior_multi(m, [2, 1]).probs, post.probs)


def test_infer_obs_memory_does_not_grow_with_the_shot_count(rapid32_matrix400, tmp_path, capsys):
    # 10^5 observations took about 644 MB when every shot had its own
    # column; the histogram needs a few (mu, B) arrays.
    path = tmp_path / "rapid32.json"
    save_matrix(rapid32_matrix400, path)
    law = rapid32_matrix400.rows[30, :17] / rapid32_matrix400.rows[30, :17].sum()
    obs = np.random.default_rng(30).choice(17, size=100_000, p=law)
    (tmp_path / "obs.txt").write_text("\n".join(map(str, obs)) + "\n")
    tracemalloc.start()
    try:
        rc = main(["infer", "-m", str(path), "--obs", str(tmp_path / "obs.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert '"n_observations": 100000' in capsys.readouterr().out
    assert peak < 32 * 2**20, peak


def test_posterior_multi_degenerate():
    m = _hand_matrix([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]])
    with pytest.raises(DegenerateEvidenceError):
        posterior_multi(m, [1, 0, 1, 2])


def test_interval_to_energy_single_photon():
    # h * c / lambda at 1550 nm, from the exact SI values of h and c.
    assert interval_to_energy(1) == pytest.approx(6.62607015e-34 * 2.99792458e8 / 1.55e-6, rel=1e-12, abs=0)
    assert interval_to_energy(33) == pytest.approx(4.229e-18, rel=1e-3, abs=0)
    assert interval_to_energy(0) == 0.0
    with pytest.raises(ValueError):
        interval_to_energy(-1)
    with pytest.raises(ValueError):
        interval_to_energy(1, wavelength=0.0)


@pytest.mark.parametrize(
    "width, wavelength, message",
    [(math.nan, 1.55e-6, "width_photons must be a real number in [0, inf), got nan"),
     (math.inf, 1.55e-6, "width_photons must be a real number in [0, inf), got inf"),
     (1, math.nan, "wavelength must be a real number in (0, inf), got nan"),
     (1, math.inf, "wavelength must be a real number in (0, inf), got inf")],
    ids=["nan-1.55e-06-width_photons", "inf-1.55e-06-width_photons", "1-nan-wavelength", "1-inf-wavelength"],
)
def test_interval_to_energy_rejects_non_finite(width, wavelength, message):
    # NaN once gave a NaN energy, which is not valid JSON, and an infinite wavelength 0 J.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        interval_to_energy(width, wavelength)


def test_stability_cutoff_rapid32(rapid32):
    assert stability_max_n(rapid32, 400, 0.01) == 16


def test_stability_tightening_tolerance_never_raises_cutoff(rapid32):
    cuts = [stability_max_n(rapid32, 400, tol) for tol in (0.001, 0.01, 0.1)]
    assert cuts == sorted(cuts)


def _tiny_system():
    return SystemConfig(
        name="tiny",
        multiplexer=MultiplexerSpec(loop_delays=(1e-9,), transmission=UniformLoss(0.0)),
        detector=DetectorSpec(efficiency=0.5, dark_prob_per_gate=(1e-4, 1e-4), gate_width=1e-9, deadtime=0.0),
    )


def test_stability_saturates_below_bin_count():
    # A four-bin system against a huge grid: every partial count is stable.
    # The all-bins-click count never is: its likelihood grows monotonically
    # with mu, so that posterior always rides the top of the grid and moves
    # when the grid is doubled. The cutoff therefore tops out at B - 1.
    assert stability_max_n(_tiny_system(), 200, 0.01) == 3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mc_stability_cutoff_matches_exact(seed):
    # The cutoff always comes from exact rows, so an MC matrix gets the
    # exact cutoff whatever its seed (infer computes it from the matrix's
    # embedded system and grid).
    mc = build_matrix(_tiny_system(), 20, "mc", n_shots=5000, seed=seed, workers=1)
    assert stability_max_n(mc.system, mc.mu_max) == 1


def test_mechanistic_stability_cutoff_is_exact(mechanistic32):
    # The undershoot chain gives exact rows, so the defaults need no seed.
    assert stability_max_n(mechanistic32, 100) == 3


def test_stability_signature_has_no_sampling_knobs():
    assert list(inspect.signature(stability_max_n).parameters) == ["system", "mu_max", "tolerance"]


def test_stability_tolerance_validation(rapid32):
    with pytest.raises(ValueError):
        stability_max_n(rapid32, 400, 0.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -0.01, 0.0])
def test_stability_tolerance_must_be_finite_and_positive(rapid32, tolerance):
    # NaN once passed the "<= 0" test and gave cutoff -1.
    message = f"tolerance must be a real number in (0, inf), got {tolerance!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stability_max_n(rapid32, 400, tolerance)


def test_relative_error_curve_shrinks(rapid32, rapid32_matrix400):
    curve = relative_error_curve(
        rapid32, rapid32_matrix400, 100.0, max_shots=80, n_trials=8, seed=5, max_admissible_n=16
    )
    assert curve.rel_err.shape == (8, 80)
    med = curve.median()
    assert med[-1] < med[0]
    assert np.all(curve.rel_err > 0)
    assert curve.shots_to(0.5) < curve.shots_to(0.15)
    assert np.isinf(curve.shots_to(1e-9))


def test_relative_error_curve_deterministic(rapid32, rapid32_matrix400):
    a = relative_error_curve(rapid32, rapid32_matrix400, 50.0, 20, 3, seed=9, max_admissible_n=16)
    b = relative_error_curve(rapid32, rapid32_matrix400, 50.0, 20, 3, seed=9, max_admissible_n=16)
    assert np.array_equal(a.rel_err, b.rel_err)


def test_relative_error_curve_is_read_only(rapid32, rapid32_matrix400):
    curve = relative_error_curve(rapid32, rapid32_matrix400, 50.0, 5, 2, seed=9, max_admissible_n=16)
    with pytest.raises(ValueError, match="read-only"):
        curve.rel_err[0, 0] = 1.0


def test_relative_error_curve_impossible_cutoff(rapid32, rapid32_matrix400):
    # A cutoff of zero clicks rejects essentially every bright shot.
    message = "stability cutoff 0 rejects nearly every shot at mu=100.0; the mu grid is too small for this source"
    with pytest.raises(DegenerateEvidenceError, match=f"^{re.escape(message)}$"):
        relative_error_curve(
            rapid32, rapid32_matrix400, 100.0, max_shots=10, n_trials=1, seed=1, max_admissible_n=0
        )


@pytest.mark.parametrize("mu_true", [math.nan, math.inf, 0.0, -1.0])
def test_relative_error_curve_checks_mu_true_itself(rapid32, rapid32_matrix400, mu_true):
    # Before, nan surfaced from Coherent as "Coherent.mu must be finite and >= 0".
    with pytest.raises(ValueError, match=f"^{re.escape(f'mu_true must be a real number in (0, inf), got {mu_true!r}')}$"):
        relative_error_curve(rapid32, rapid32_matrix400, mu_true, 10, 2, seed=1)


def test_relative_error_curve_validation(rapid32, rapid32_matrix400):
    with pytest.raises(ValueError):
        relative_error_curve(rapid32, rapid32_matrix400, 0.0, 10, 2, seed=1)
    with pytest.raises(ValueError):
        relative_error_curve(rapid32, rapid32_matrix400, 10.0, 0, 2, seed=1)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_relative_error_curve_level_validation(rapid32, rapid32_matrix400, level):
    # The same check and message as credible_interval, raised before any shot is drawn.
    message = f"^{re.escape(f'level must be a real number in (0, 1), got {level!r}')}$"
    with pytest.raises(ValueError, match=message):
        relative_error_curve(rapid32, rapid32_matrix400, 100.0, 5, 2, seed=1, level=level)
    with pytest.raises(ValueError, match=message):
        credible_interval(Posterior(probs=np.array([0.5, 0.5]), log_evidence=0.0), level)


def test_bayes_consistency_identity(rapid32_matrix400):
    # Scaling the normalized posterior back by the column sum must recover
    # the matrix column exactly; only a normalization happened in between.
    for n in range(rapid32_matrix400.num_bins + 1):
        column = rapid32_matrix400.rows[:, n]
        post = posterior_single(rapid32_matrix400, n)
        recovered = post.probs * column.sum()
        assert np.allclose(recovered, column, rtol=0.0, atol=1e-12)


def test_point_mass_posterior_interval():
    probs = np.zeros(11)
    probs[7] = 1.0
    iv = credible_interval(Posterior(probs=probs, log_evidence=0.0), 0.90)
    assert (iv.lo, iv.hi, iv.width) == (7, 7, 1)
    assert iv.mass == pytest.approx(1.0)


def test_symmetric_posterior_symmetric_interval():
    probs = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0
    iv = credible_interval(Posterior(probs=probs, log_evidence=0.0), 0.75)
    assert (iv.lo, iv.hi) == (1, 3)
    assert iv.mass == pytest.approx(7.0 / 9.0)


def test_mu_max_invariance_below_cutoff(rapid32, rapid32_matrix400):
    # The defining property of the cutoff: doubling the grid leaves the
    # posterior for every admissible count essentially unchanged.
    wide = build_matrix(rapid32, 800, method="exact")
    cutoff = stability_max_n(rapid32, 400, 0.01)
    for n in range(cutoff + 1):
        narrow = np.zeros(801)
        narrow[:401] = posterior_single(rapid32_matrix400, n).probs
        tv = total_variation(narrow, posterior_single(wide, n).probs)
        assert tv < 0.01
    beyond = np.zeros(801)
    beyond[:401] = posterior_single(rapid32_matrix400, cutoff + 1).probs
    assert total_variation(beyond, posterior_single(wide, cutoff + 1).probs) >= 0.01


def test_multi_shot_contraction(rapid32, rapid32_matrix400):
    # More shots must tighten the interval: median width at 100 shots is
    # strictly below the width at 10 shots across the bright-to-dim range.
    for mu_true in (10.0, 50.0, 100.0):
        curve = relative_error_curve(
            rapid32, rapid32_matrix400, mu_true, 100, 50, seed=7, max_admissible_n=16
        )
        med = curve.median()
        assert med[99] < med[9]


def test_median_curve_nonincreasing(rapid32, rapid32_matrix400):
    curve = relative_error_curve(
        rapid32, rapid32_matrix400, 100.0, 150, 100, seed=42, max_admissible_n=16
    )
    med = curve.median()
    assert np.all(np.diff(med) <= 1e-12)
