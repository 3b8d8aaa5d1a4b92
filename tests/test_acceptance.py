"""End-to-end acceptance gate.

Each test exercises one headline capability at its published tolerance and
prints a single PASS/FAIL line (run with -s to see them on success; pytest
shows captured output on failure anyway). Together they pin the numbers the
package is advertised to reproduce.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from binflux import (
    Coherent,
    DetectorSpec,
    MultiplexerSpec,
    SystemConfig,
    UniformLoss,
    build_matrix,
    coherent_click_distribution,
    credible_interval,
    fock_click_distribution,
    interval_to_energy,
    optimal_detection_probability,
    posterior_single,
    relative_error_curve,
    save_matrix,
    shot_dark_probability,
    shots_to_relative_error,
    simulate_batch,
    stability_max_n,
    total_variation,
    validate_timing,
)

MU_GRID = (1.0, 10.0, 50.0, 100.0, 400.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def cutoff16(rapid32):
    return stability_max_n(rapid32, 400, 0.01)


@pytest.fixture(scope="module")
def convergence_curve(rapid32, rapid32_matrix400, cutoff16):
    return relative_error_curve(
        rapid32, rapid32_matrix400, 100.0, 400, 100, seed=42, max_admissible_n=cutoff16
    )


def _pooled_chi2_pvalue(counts: np.ndarray, probs: np.ndarray, n_shots: int) -> float:
    # Pool adjacent click counts until each bucket expects at least 5 events,
    # folding any tail remainder into the last bucket.
    expected = probs * n_shots
    obs, exp = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(counts, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0:
        obs[-1] += o_acc
        exp[-1] += e_acc
    obs_a, exp_a = np.array(obs), np.array(exp)
    dof = len(obs_a) - 1
    if dof < 1:
        return 1.0
    stat = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    return float(chi2.sf(stat, dof))


def test_criterion_1_oracle_equivalence(rapid32, conventional16):
    t0 = time.perf_counter()
    worst = (1.0, "", 0.0)
    seed = 101
    for system in (rapid32, conventional16):
        weights = system.bin_weights()
        for mu in MU_GRID:
            exact = coherent_click_distribution(mu, weights, system.detector).probs
            batch = simulate_batch(
                Coherent(mu), weights, system.detector, 1_000_000, seed=seed
            )
            seed += 1
            p = _pooled_chi2_pvalue(batch.histogram, exact, batch.n_shots)
            if p < worst[0]:
                worst = (p, system.name, mu)
    elapsed = time.perf_counter() - t0
    ok = worst[0] > 0.001 and elapsed < 60.0
    _report(
        1,
        "oracle equivalence",
        ok,
        f"worst chi-square p={worst[0]:.4f} at {worst[1]} mu={worst[2]}, "
        f"10x10^6 shots in {elapsed:.1f}s",
    )


def test_criterion_2_single_shot_resolution(rapid32_matrix400):
    posterior = posterior_single(rapid32_matrix400, 1)
    interval = credible_interval(posterior, 0.90)
    energy = interval_to_energy(interval.width)
    ok = (
        abs(posterior.mode - 8) <= 3
        and abs(interval.width - 33) <= 10
        and abs(energy - 4.2e-18) <= 0.30 * 4.2e-18
    )
    _report(
        2,
        "single-shot resolution",
        ok,
        f"mode {posterior.mode}, 90% interval [{interval.lo}, {interval.hi}] "
        f"width {interval.width}, energy {energy * 1e18:.2f} aJ",
    )


def test_criterion_3_stability_cutoff(cutoff16):
    ok = abs(cutoff16 - 15) <= 1
    _report(3, "stability cutoff", ok, f"max admissible clicks {cutoff16} vs 15+/-1")


def test_criterion_4_multi_shot_convergence(convergence_curve):
    shots = convergence_curve.shots_to(0.1)
    ok = 105 <= shots <= 195
    _report(
        4,
        "multi-shot convergence",
        ok,
        f"median shots to 10% relative width {shots:.0f}, window [105, 195]",
    )


def test_criterion_5_baseline_comparison(convergence_curve):
    mux_shots = convergence_curve.shots_to(0.1)
    base_half = shots_to_relative_error(0.1, convention="half")
    base_full = shots_to_relative_error(0.1, convention="full")
    ratio_half = base_half / mux_shots
    ratio_full = base_full / mux_shots
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text() if readme.exists() else ""
    documented = str(base_half) in text and str(base_full) in text
    ok = 20.0 <= ratio_full <= 45.0 and documented
    _report(
        5,
        "baseline comparison",
        ok,
        f"single-pixel {base_half} (half) / {base_full} (full) shots vs multiplexed "
        f"{mux_shots:.0f}: ratios x{ratio_half:.1f} / x{ratio_full:.1f}, "
        f"convention discussion in README: {documented}",
    )


def test_criterion_6_dark_count_sanity(rapid32):
    bins_per_detector = rapid32.num_bins // 2
    p_dark = shot_dark_probability(rapid32.detector, bins_per_detector)
    ok = 9.0e-4 <= p_dark <= 1.05e-3
    _report(6, "dark-count sanity", ok, f"per-train dark probability {p_dark:.3e}")


def test_criterion_7_timing_arithmetic(rapid32, conventional16):
    slow = validate_timing(
        conventional16.bin_weights(), conventional16.detector.deadtime, conventional16.guard
    )
    fast = validate_timing(rapid32.bin_weights(), rapid32.detector.deadtime, rapid32.guard)
    ok = (
        slow.deadtime_ok
        and fast.deadtime_ok
        and slow.train_length == pytest.approx(45e-6, rel=1e-9, abs=0)
        and round(slow.max_rep_rate / 1e3) == 22
        and fast.train_length <= 167e-9
        and fast.max_rep_rate >= 6e6
    )
    _report(
        7,
        "timing arithmetic",
        ok,
        f"conventional16 train {slow.train_length * 1e6:.1f} us -> {slow.max_rep_rate / 1e3:.1f} kHz, "
        f"rapid32 train {fast.train_length * 1e9:.2f} ns -> {fast.max_rep_rate / 1e6:.2f} MHz",
    )


def test_criterion_8_optimal_detection_probability():
    best = optimal_detection_probability()
    ok = best in (0.45, 0.50)
    _report(8, "baseline optimum near 50%", ok, f"grid argmin at p={best}")


def test_criterion_9_property_suite(rapid32, rapid32_matrix400, tiny_weights, tmp_path):
    rows = rapid32_matrix400.rows
    norm_err = float(np.abs(rows.sum(axis=1) - 1.0).max())

    # Calibration: draw (mu, n) from the joint model, check 90% HPD coverage.
    rng = np.random.default_rng(20260819)
    n_draws = 100_000
    mus = rng.integers(0, 401, size=n_draws)
    u = rng.random(n_draws)
    cdf = np.cumsum(rows, axis=1)
    ns = (cdf[mus] < u[:, None]).sum(axis=1)
    intervals = np.array(
        [
            (lambda iv: (iv.lo, iv.hi))(
                credible_interval(posterior_single(rapid32_matrix400, n), 0.90)
            )
            for n in range(rapid32_matrix400.num_bins + 1)
        ]
    )
    lo, hi = intervals[ns, 0], intervals[ns, 1]
    coverage = float(np.mean((lo <= mus) & (mus <= hi)))

    # Determinism: bit-identical histograms and saved matrices on rerun.
    small = SystemConfig(
        name="mc-small",
        multiplexer=MultiplexerSpec(loop_delays=(1e-9, 2e-9), transmission=UniformLoss(0.8)),
        detector=DetectorSpec(
            efficiency=0.4, dark_prob_per_gate=(0.01, 0.002), gate_width=1e-9, deadtime=0.0
        ),
    )
    weights = small.bin_weights()
    h1 = simulate_batch(Coherent(5.0), weights, small.detector, 50_000, seed=13).histogram
    h2 = simulate_batch(Coherent(5.0), weights, small.detector, 50_000, seed=13).histogram
    m1 = build_matrix(small, 10, method="mc", n_shots=20_000, seed=4)
    m2 = build_matrix(small, 10, method="mc", n_shots=20_000, seed=4)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(m1, pa)
    save_matrix(m2, pb)
    deterministic = bool(np.array_equal(h1, h2)) and pa.read_bytes() == pb.read_bytes()

    # Mixing identity on a 4-bin system: the coherent distribution is the
    # Poisson mixture of the Fock distributions.
    detector = small.detector
    mu = 1.5
    n_terms = int(poisson.ppf(1.0 - 1e-13, mu)) + 2
    mix = np.zeros(tiny_weights.num_bins + 1)
    for n in range(n_terms + 1):
        fock = fock_click_distribution(n, tiny_weights, detector)
        mix += poisson.pmf(n, mu) * fock.probs
    mix += (1.0 - poisson.cdf(n_terms, mu)) * fock.probs  # tail, below 1e-13
    coherent = coherent_click_distribution(mu, tiny_weights, detector).probs
    tv = total_variation(mix / mix.sum(), coherent)

    ok = norm_err <= 1e-9 and coverage >= 0.88 and deterministic and tv < 1e-6
    _report(
        9,
        "property suite",
        ok,
        f"row norm err {norm_err:.1e}, calibration {coverage:.3f} over {n_draws} draws, "
        f"deterministic reruns {deterministic}, mixing identity TV {tv:.1e}",
    )
