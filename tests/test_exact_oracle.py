import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from test_mc2_kernel import brute_force_mechanistic, small_systems

from binflux import (
    BinWeights,
    Coherent,
    DetectorSpec,
    Fock,
    MechanisticUndershoot,
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
    click_distribution,
    coherent_click_distribution,
    effective_efficiency,
    fock_click_distribution,
    no_click_probabilities,
    per_bin_dark_probabilities,
    total_variation,
)
from binflux.exact_oracle import _binomial_transfer, _gate_order, coherent_click_rows, poisson_binomial_pmf


def test_poisson_binomial_equal_p_matches_binomial():
    p = 0.3
    got = poisson_binomial_pmf(np.full(10, p))
    expect = stats.binom.pmf(np.arange(11), 10, p)
    assert np.allclose(got, expect, atol=1e-14)


def test_poisson_binomial_mixed_p_brute_force():
    probs = np.array([0.1, 0.7, 0.35, 0.02])
    got = poisson_binomial_pmf(probs)
    expect = np.zeros(5)
    for outcome in itertools.product([0, 1], repeat=4):
        w = math.prod(p if o else 1 - p for o, p in zip(outcome, probs))
        expect[sum(outcome)] += w
    assert np.allclose(got, expect, atol=1e-14)


def test_per_bin_click_probabilities(rapid32, rapid32_weights):
    p = 1.0 - no_click_probabilities(100.0, rapid32_weights, rapid32.detector)
    eta = effective_efficiency(rapid32.detector, 100.0)
    q = rapid32_weights.weights[0]
    assert p[0] == pytest.approx(1 - (1 - 1e-5) * math.exp(-100 * q * eta))
    assert p[1] == pytest.approx(1 - (1 - 5e-5) * math.exp(-100 * q * eta))


def test_coherent_zero_mu_zero_dark_is_silent(tiny_weights, ideal_detector):
    d = coherent_click_distribution(0.0, tiny_weights, ideal_detector)
    assert d.probs[0] == pytest.approx(1.0)
    assert np.all(d.probs[1:] == 0.0)


def test_coherent_zero_mu_with_dark(tiny_weights):
    det = DetectorSpec(efficiency=0.5, dark_prob_per_gate=(0.01, 0.01), gate_width=1e-9, deadtime=0.0)
    d = coherent_click_distribution(0.0, tiny_weights, det)
    expect = stats.binom.pmf(np.arange(5), 4, 0.01)
    assert np.allclose(d.probs, expect, atol=1e-14)


def test_coherent_mean_and_distribution_properties(rapid32, rapid32_weights):
    d = coherent_click_distribution(100.0, rapid32_weights, rapid32.detector)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(d.probs >= 0)
    assert d.probs.size == 33
    # Frozen: mean click count at mu=100 on the 32-bin system.
    assert d.mean == pytest.approx(9.83725253962943, rel=1e-10)
    k = np.arange(d.probs.size)
    assert d.probs @ k**2 - d.mean**2 > 0


def test_coherent_mean_saturates_below_bin_count(rapid32, rapid32_weights):
    means = [
        coherent_click_distribution(mu, rapid32_weights, rapid32.detector).mean
        for mu in (1.0, 10.0, 100.0, 400.0, 4000.0)
    ]
    assert all(b > a for a, b in zip(means, means[1:]))
    assert means[-1] < 32.0


def test_fock_two_photons_ideal_quarters(tiny_weights, ideal_detector):
    # Two photons over four equal lossless bins: both land together with
    # probability 1/4 (one click), otherwise two clicks.
    d = fock_click_distribution(2, tiny_weights, ideal_detector)
    assert np.allclose(d.probs, [0.0, 0.25, 0.75, 0.0, 0.0], atol=1e-14)


def test_fock_zero_photons_dark_only(tiny_weights):
    det = DetectorSpec(efficiency=0.5, dark_prob_per_gate=(0.02, 0.02), gate_width=1e-9, deadtime=0.0)
    d = fock_click_distribution(0, tiny_weights, det)
    expect = stats.binom.pmf(np.arange(5), 4, 0.02)
    assert np.allclose(d.probs, expect, atol=1e-14)


def test_fock_one_photon_lossy(lossy_small):
    weights, det = lossy_small
    d = fock_click_distribution(1, weights, det)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # Mean clicks = sum over bins of P(bin clicks); a bin clicks on a dark
    # event or when the single photon lands there and is detected.
    darks = per_bin_dark_probabilities(weights, det)
    expect = float(np.sum(darks + (1 - darks) * weights.weights * det.efficiency))
    assert d.mean == pytest.approx(expect, rel=1e-12, abs=0)


def _click_probability(k, eta, dark):
    """A gate's click probability with k photons reaching it: 1 - (1 - dark) * (1 - eta)**k."""
    return 1 - (1 - dark) * (1 - eta) ** k


def _brute_force_fock(n, weights, det):
    """Direct enumeration over all photon-to-cell assignments."""
    q = weights.weights
    b = q.size
    eta = effective_efficiency(det, float(n))
    darks = per_bin_dark_probabilities(weights, det)
    cells = list(q) + [1.0 - q.sum()]  # arrival cells plus loss
    out = np.zeros(b + 1)
    for assign in itertools.product(range(b + 1), repeat=n):
        w = math.prod(cells[c] for c in assign)
        counts = [assign.count(j) for j in range(b)]
        bin_click_p = [_click_probability(k, eta, darks[j]) for j, k in enumerate(counts)]
        out += w * poisson_binomial_pmf(np.array(bin_click_p))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fock_dynamic_program_matches_enumeration(n, lossy_small):
    weights, det = lossy_small
    got = fock_click_distribution(n, weights, det)
    expect = _brute_force_fock(n, weights, det)
    assert np.allclose(got.probs, expect, atol=1e-12)


def test_fock_enumeration_with_unbalanced_couplers():
    weights = build_bin_weights(
        MultiplexerSpec(loop_delays=(1e-9,), coupler_ratios=(0.3, 0.7), transmission=UniformLoss(1.2))
    )
    det = DetectorSpec(efficiency=0.35, dark_prob_per_gate=(0.03, 0.001), gate_width=1e-9, deadtime=0.0)
    got = fock_click_distribution(3, weights, det)
    assert np.allclose(got.probs, _brute_force_fock(3, weights, det), atol=1e-12)


def _routing_loop_fock(n, weights, det):
    """Reference: the routing recursion as a loop over bins, photons left and photons landing."""
    q = weights.weights
    eta = effective_efficiency(det, float(n))
    dark = per_bin_dark_probabilities(weights, det)
    suffix = np.concatenate([np.cumsum(q[::-1])[::-1], [0.0]]) + max(0.0, 1.0 - float(q.sum()))
    dp = np.zeros((n + 1, q.size + 1))
    dp[n, 0] = 1.0
    for j in range(q.size):
        share = q[j] / suffix[j] if suffix[j] > 0.0 else 0.0
        new = np.zeros_like(dp)
        for r in range(n + 1):
            for k in range(r + 1):
                w = math.comb(r, k) * share**k * (1.0 - share) ** (r - k)
                pc = _click_probability(k, eta, float(dark[j]))
                new[r - k, :] += dp[r] * (w * (1.0 - pc))
                new[r - k, 1:] += dp[r, :-1] * (w * pc)
        dp = new
    probs = dp.sum(axis=0)
    return probs / probs.sum()


@pytest.mark.parametrize("system", ["rapid32", "conventional16", "lossy_small"])
def test_fock_transfer_matches_routing_loop(system, request):
    # Same law, other summation order: equal to a few ulps up to 12 photons.
    fixture = request.getfixturevalue(system)
    weights, det = fixture if system == "lossy_small" else (fixture.bin_weights(), fixture.detector)
    for n in (0, 1, 2, 5, 12):
        got = fock_click_distribution(n, weights, det).probs
        assert np.allclose(got, _routing_loop_fock(n, weights, det), rtol=0, atol=1e-14)


@pytest.mark.parametrize("s", [0, Fraction(1, 100), Fraction(3, 10), Fraction(1, 2), Fraction(97, 100), 1])
def test_binomial_transfer_matches_exact_rationals(s):
    # Row r of the transfer against C(r, r') s^(r - r') (1 - s)^r' in exact
    # rationals at the float s the oracle is given, n = 1000 (the cap).
    n = 1000
    s_float = float(s)
    t = _binomial_transfer(n, s_float)
    land, den = Fraction(s_float).as_integer_ratio()
    land_pow, stay_pow = [1], [1]
    for _ in range(n):
        land_pow.append(land_pow[-1] * land)
        stay_pow.append(stay_pow[-1] * (den - land))
    for r in (1, 2, 37, 250, 1000):
        # int / int rounds the exact ratio once.
        exact = np.array([math.comb(r, k) * land_pow[r - k] * stay_pow[k] / den**r for k in range(r + 1)])
        got = t[r, : r + 1]
        big = exact >= 1e-300
        assert big.any()
        assert np.all(np.abs(got[big] - exact[big]) <= 1e-12 * exact[big]), (r, s)
        assert np.all(np.abs(got[~big] - exact[~big]) <= 1e-300), (r, s)
        assert np.all(t[r, r + 1 :] == 0.0)


def test_coherent_is_poisson_mixture_of_fock(lossy_small):
    weights, det = lossy_small
    mu = 2.0
    coherent = coherent_click_distribution(mu, weights, det)
    mix = np.zeros_like(coherent.probs)
    for n in range(26):
        mix += stats.poisson.pmf(n, mu) * fock_click_distribution(n, weights, det).probs
    assert total_variation(coherent.probs, mix) < 1e-6


def test_fock_cap_enforced(tiny_weights, ideal_detector):
    # The cap guards the (n + 1)**2 transfer matrices, not the range of the law.
    with pytest.raises(ValueError, match="cap of 1000"):
        fock_click_distribution(1001, tiny_weights, ideal_detector)
    d = fock_click_distribution(200, tiny_weights, ideal_detector)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_photons", [2.5, float("nan"), True, -1])
def test_fock_rejects_a_non_photon_number_before_any_work(tiny_weights, ideal_detector, n_photons):
    # The same check as Fock(n_photons) on the Monte Carlo path.
    with pytest.raises(ValueError, match=r"^Fock\.n_photons must be "):
        fock_click_distribution(n_photons, tiny_weights, ideal_detector)


# detector_of_bin -> (gate order, gates whose miss is 0: each detector's first)
GATE_ORDERS = {
    "all on detector 0": ([0, 0, 0, 0], [0, 1, 2, 3], [0]),
    "all on detector 1": ([1, 1, 1], [0, 1, 2], [0]),
    "alternating": ([0, 1, 0, 1, 0, 1], [0, 2, 4, 1, 3, 5], [0, 3]),
    "blocks": ([1, 1, 0, 0, 0, 1], [2, 3, 4, 0, 1, 5], [0, 3]),
    "single bin": ([1], [0], [0]),
}


@pytest.mark.parametrize("name", sorted(GATE_ORDERS))
def test_gate_order_is_detector_major_and_stable(name):
    detector_of_bin, order, first_gates = GATE_ORDERS[name]
    b = len(detector_of_bin)
    weights = BinWeights(np.full(b, 1.0 / b), np.arange(b, dtype=float), np.array(detector_of_bin))
    det = DetectorSpec(0.5, (0.01, 0.02), 1e-9, 0.0, undershoot=MechanisticUndershoot(0.3))
    got_order, miss = _gate_order(weights, det)
    assert got_order.tolist() == order
    assert miss.tolist() == [0.0 if g in first_gates else 0.3 for g in range(b)]
    _, independent = _gate_order(weights, dataclasses.replace(det, undershoot=None))
    assert independent.tolist() == [0.0] * b


def _brute_force_mechanistic_fock(n, weights, det):
    """Enumeration over photon assignments, then over raw clicks and miss draws.

    Assignments are grouped by their per-cell photon counts (multinomial
    weights); each count vector fixes every gate's raw click probability,
    and brute_force_mechanistic enumerates the rest.
    """
    q = weights.weights
    b = q.size
    darks = per_bin_dark_probabilities(weights, det)
    cells = list(q) + [1.0 - q.sum()]
    out = np.zeros(b + 1)
    for assign in itertools.combinations_with_replacement(range(b + 1), n):
        counts = [assign.count(c) for c in range(b + 1)]
        w = math.factorial(n) * math.prod(cells[c] ** k / math.factorial(k) for c, k in enumerate(counts))
        p = np.array([_click_probability(counts[j], det.efficiency, darks[j]) for j in range(b)])
        out += w * brute_force_mechanistic(p, weights.detector_of_bin, det.undershoot.p_miss_next)[0]
    return out


@given(system=small_systems(max_bins=6, mechanistic=True), n=st.integers(0, 4))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_mechanistic_fock_matches_enumeration(system, n):
    weights, detector = system
    got = fock_click_distribution(n, weights, detector).probs
    assert np.allclose(got, _brute_force_mechanistic_fock(n, weights, detector), rtol=0, atol=1e-12)


@given(system=small_systems(max_bins=8, mechanistic=True), mu=st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_coherent_row_is_poisson_mixture_of_fock_rows(system, mu):
    # Poisson(mu) photons split into independent Poisson counts per bin, so
    # the two oracles meet; the mixture is cut where its tail is below 1e-14.
    weights, detector = system
    n_max = int(stats.poisson.isf(1e-14, mu)) + 1
    fock = np.array([fock_click_distribution(n, weights, detector).probs for n in range(n_max + 1)])
    mix = stats.poisson.pmf(np.arange(n_max + 1), mu) @ fock
    assert np.allclose(coherent_click_rows(mu, weights, detector), mix, rtol=0, atol=1e-12)


@given(system=small_systems(max_bins=6, mechanistic=True), mu=st.floats(0.0, 40.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_undershoot_chain_matches_enumeration(system, mu):
    weights, detector = system
    p = 1.0 - no_click_probabilities(mu, weights, detector)
    hist, _ = brute_force_mechanistic(p, weights.detector_of_bin, detector.undershoot.p_miss_next)
    got = coherent_click_distribution(mu, weights, detector).probs
    assert np.allclose(got, hist, rtol=0, atol=1e-12)
    # A scalar mu is the one-row case of the all-rows pass.
    assert np.array_equal(coherent_click_rows([0.0, mu], weights, detector)[1], got)


def test_undershoot_chain_is_continuous_at_zero(rapid32):
    weights = rapid32.bin_weights()
    barely, none = (
        dataclasses.replace(rapid32.detector, undershoot=MechanisticUndershoot(p_miss)) for p_miss in (1e-12, 0.0)
    )
    assert barely.history_dependent and not none.history_dependent
    mus = np.arange(401)
    chain = coherent_click_rows(mus, weights, barely)
    assert np.abs(chain - coherent_click_rows(mus, weights, none)).max() <= 1e-10


def test_click_distribution_dispatch(tiny_weights, ideal_detector):
    c = click_distribution(Coherent(1.0), tiny_weights, ideal_detector)
    f = click_distribution(Fock(2), tiny_weights, ideal_detector)
    assert np.array_equal(c.probs, coherent_click_distribution(1.0, tiny_weights, ideal_detector).probs)
    assert np.array_equal(f.probs, fock_click_distribution(2, tiny_weights, ideal_detector).probs)


def test_negative_mu_rejected(tiny_weights, ideal_detector):
    with pytest.raises(ValueError):
        coherent_click_distribution(-1.0, tiny_weights, ideal_detector)
