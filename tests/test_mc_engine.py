import re

import numpy as np
import pytest
from scipy import stats

from binflux import (
    Coherent,
    DetectorSpec,
    Fock,
    MechanisticUndershoot,
    coherent_click_distribution,
    fock_click_distribution,
    get_preset,
    no_click_probabilities,
    build_matrix,
    relative_error_curve,
    simulate_baseline,
    simulate_batch,
    total_variation,
)
from binflux._rng import derive_seed, seed_sequence, uniform_lanes
from binflux.mc_engine import FOCK_MC_CAP, _Kernel


def test_same_seed_same_result(rapid32, rapid32_weights):
    a = simulate_batch(Coherent(50.0), rapid32_weights, rapid32.detector, 5000, seed=1, store_totals=True)
    b = simulate_batch(Coherent(50.0), rapid32_weights, rapid32.detector, 5000, seed=1, store_totals=True)
    assert np.array_equal(a.histogram, b.histogram)
    assert np.array_equal(a.click_totals, b.click_totals)
    # Coherent shots draw no photon numbers.
    assert a.photon_sum is None and b.photon_sum is None


def test_different_seed_different_result(rapid32, rapid32_weights):
    a = simulate_batch(Coherent(50.0), rapid32_weights, rapid32.detector, 5000, seed=1)
    b = simulate_batch(Coherent(50.0), rapid32_weights, rapid32.detector, 5000, seed=2)
    assert not np.array_equal(a.histogram, b.histogram)


def test_chunk_size_and_workers_do_not_change_results(rapid32, rapid32_weights, simulate_in_chunks):
    args = (Coherent(100.0), rapid32_weights, rapid32.detector, 20000, 7)
    a = simulate_in_chunks(999, *args, store_totals=True)
    b = simulate_in_chunks(4096, *args, store_totals=True, workers=4)
    c = simulate_in_chunks(20000, *args, store_totals=True)
    assert np.array_equal(a.histogram, b.histogram)
    assert np.array_equal(a.histogram, c.histogram)
    assert np.array_equal(a.click_totals, b.click_totals)
    assert np.array_equal(a.click_totals, c.click_totals)


def test_workers_env_cap(rapid32, rapid32_weights, monkeypatch, simulate_in_chunks):
    monkeypatch.setenv("BINFLUX_THREADS", "3")
    a = simulate_in_chunks(1000, Coherent(10.0), rapid32_weights, rapid32.detector, 8000, seed=3)
    monkeypatch.delenv("BINFLUX_THREADS")
    b = simulate_in_chunks(1000, Coherent(10.0), rapid32_weights, rapid32.detector, 8000, seed=3)
    assert np.array_equal(a.histogram, b.histogram)


BAD_SEEDS = [2.5, True, False, -1, np.float64(2.0), "3"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_bad_seed_is_refused_not_truncated(rapid32, rapid32_weights, seed):
    # int(seed) once ran seed=2.5 as seed 2 and seed=True as seed 1.
    message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
    calls = [
        lambda: simulate_batch(Coherent(1.0), rapid32_weights, rapid32.detector, 10, seed),
        lambda: build_matrix(rapid32, 3, "mc", n_shots=10, seed=seed),
        lambda: relative_error_curve(rapid32, build_matrix(rapid32, 20), 5.0, 3, 2, seed, max_admissible_n=4),
        lambda: simulate_baseline(100.0, 0.165, 5, 2, seed),
        lambda: seed_sequence(seed),
        lambda: derive_seed(seed, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_integer_seed_types_agree(rapid32, rapid32_weights):
    # numpy integers and ints past 64 bits are seeds like any other int.
    runs = [
        simulate_batch(Coherent(20.0), rapid32_weights, rapid32.detector, 300, s, store_totals=True).click_totals
        for s in (7, np.int64(7), np.uint64(7))
    ]
    assert all(np.array_equal(r, runs[0]) for r in runs)
    assert derive_seed(2**70, 3) == derive_seed(2**70, 3) != derive_seed(2**70 + 1, 3)


def test_bad_workers_env(rapid32, rapid32_weights, monkeypatch):
    for value in ("lots", "0", "-3"):
        monkeypatch.setenv("BINFLUX_THREADS", value)
        with pytest.raises(ValueError, match="BINFLUX_THREADS"):
            simulate_batch(Coherent(1.0), rapid32_weights, rapid32.detector, 10, seed=0)


def test_single_shot_matches_batch_slice(rapid32, rapid32_weights):
    # Shot i alone is simulate_batch(..., start_shot=i, n_shots=1).
    batch = simulate_batch(
        Coherent(100.0), rapid32_weights, rapid32.detector, 50, seed=11,
        start_shot=200, store_totals=True,
    )
    shots = [
        simulate_batch(
            Coherent(100.0), rapid32_weights, rapid32.detector, 1, seed=11,
            start_shot=200 + i, store_totals=True,
        )
        for i in range(50)
    ]
    assert [int(rec.click_totals[0]) for rec in shots] == batch.click_totals.tolist()
    kernel = _Kernel(Coherent(100.0), rapid32_weights, rapid32.detector)
    patterns = np.concatenate(
        [kernel.run(uniform_lanes(seed_sequence(11), 200 + i, 1, kernel.lanes))[0] for i in range(50)]
    )
    assert patterns.shape == (50, 32)
    assert np.array_equal(patterns, kernel.run(uniform_lanes(seed_sequence(11), 200, 50, kernel.lanes))[0])
    assert np.array_equal(patterns.sum(axis=1), batch.click_totals)


def test_records_and_totals_consistent(rapid32, rapid32_weights, simulate_in_chunks):
    batch = simulate_in_chunks(100, Coherent(20.0), rapid32_weights, rapid32.detector, 500, seed=5, store_totals=True)
    assert batch.click_totals.shape == (500,)
    kernel = _Kernel(Coherent(20.0), rapid32_weights, rapid32.detector)
    clicks, _, _ = kernel.run(uniform_lanes(seed_sequence(5), 0, 500, kernel.lanes))
    assert np.array_equal(batch.click_totals, clicks.sum(axis=1))
    hist = np.bincount(batch.click_totals, minlength=33)
    assert np.array_equal(hist, batch.histogram)
    assert batch.distribution.sum() == pytest.approx(1.0)


def test_coherent_histogram_matches_exact(rapid32, rapid32_weights):
    batch = simulate_batch(Coherent(100.0), rapid32_weights, rapid32.detector, 200_000, seed=13)
    exact = coherent_click_distribution(100.0, rapid32_weights, rapid32.detector)
    assert total_variation(batch.distribution, exact.probs) < 0.01
    assert batch.mean_clicks == pytest.approx(exact.mean, rel=0.01)


def test_per_bin_click_frequency_within_4se(rapid32, rapid32_weights):
    # Each gate fires independently with probability
    # p_b = 1 - (1 - d_b) * exp(-mu * q_b * eta_eff); per-bin click
    # frequencies must sit within 4 standard errors of it.
    mu, n = 100.0, 200_000
    kernel = _Kernel(Coherent(mu), rapid32_weights, rapid32.detector)
    clicks, _, _ = kernel.run(uniform_lanes(seed_sequence(17), 0, n, kernel.lanes))
    p = 1.0 - no_click_probabilities(mu, rapid32_weights, rapid32.detector)
    se = np.sqrt(p * (1.0 - p) / n)
    assert clicks.shape == (n, 32)
    assert np.all(np.abs(clicks.sum(axis=0) / n - p) < 4 * se)


def test_mean_clicks_monotone_in_mu(rapid32, rapid32_weights):
    means = [
        simulate_batch(Coherent(mu), rapid32_weights, rapid32.detector, 50_000, seed=19).mean_clicks
        for mu in (1.0, 10.0, 50.0, 100.0, 400.0)
    ]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_coherent_zero_silent_without_dark(tiny_weights, ideal_detector):
    det = DetectorSpec(efficiency=1.0, dark_prob_per_gate=(0.0, 0.0), gate_width=1e-9, deadtime=0.0)
    batch = simulate_batch(Coherent(0.0), tiny_weights, det, 1000, seed=23)
    assert batch.histogram[0] == 1000
    assert np.all(batch.histogram[1:] == 0)


def test_fock_histogram_matches_exact(lossy_small):
    weights, det = lossy_small
    batch = simulate_batch(Fock(5), weights, det, 200_000, seed=29)
    exact = fock_click_distribution(5, weights, det)
    assert total_variation(batch.distribution, exact.probs) < 0.01


def test_fock_zero_photons_dark_only_mc(lossy_small):
    weights, det = lossy_small
    batch = simulate_batch(Fock(0), weights, det, 100_000, seed=31)
    exact = fock_click_distribution(0, weights, det)
    assert total_variation(batch.distribution, exact.probs) < 0.01


@pytest.mark.parametrize("chunk_size", [7, 65536])
@pytest.mark.parametrize("n_photons", [5, 64, 65, 200])
def test_fock_large_photon_number_path(lossy_small, n_photons, chunk_size, simulate_in_chunks):
    # Photon numbers on both sides of 64 and of the chunk length all go
    # through the same routing; one shot per chunk is the reference.
    weights, det = lossy_small
    batch = simulate_in_chunks(chunk_size, Fock(n_photons), weights, det, 50, seed=37, store_totals=True)
    assert batch.n_shots == 50
    assert batch.histogram.sum() == 50
    assert np.array_equal(np.bincount(batch.click_totals, minlength=weights.num_bins + 1), batch.histogram)
    ref = simulate_in_chunks(1, Fock(n_photons), weights, det, 50, seed=37, store_totals=True)
    assert np.array_equal(batch.click_totals, ref.click_totals)
    assert np.array_equal(batch.photon_sum, ref.photon_sum)
    assert 0 < batch.photon_sum.sum() <= 50 * n_photons


def test_fock_cap(tiny_weights, ideal_detector):
    with pytest.raises(ValueError, match="cap"):
        simulate_batch(Fock(FOCK_MC_CAP + 1), tiny_weights, ideal_detector, 1, seed=0)


def test_mechanistic_zero_equals_none(lossy_small):
    weights, det = lossy_small
    det0 = DetectorSpec(
        efficiency=det.efficiency,
        dark_prob_per_gate=det.dark_prob_per_gate,
        gate_width=det.gate_width,
        deadtime=det.deadtime,
        undershoot=MechanisticUndershoot(0.0),
    )
    a = simulate_batch(Coherent(5.0), weights, det, 20_000, seed=41)
    b = simulate_batch(Coherent(5.0), weights, det0, 20_000, seed=41)
    assert np.array_equal(a.histogram, b.histogram)


def test_mechanistic_suppression_reduces_clicks(lossy_small):
    weights, det = lossy_small
    det_m = DetectorSpec(
        efficiency=det.efficiency,
        dark_prob_per_gate=det.dark_prob_per_gate,
        gate_width=det.gate_width,
        deadtime=det.deadtime,
        undershoot=MechanisticUndershoot(0.5),
    )
    a = simulate_batch(Coherent(20.0), weights, det, 50_000, seed=43)
    b = simulate_batch(Coherent(20.0), weights, det_m, 50_000, seed=43)
    assert b.mean_clicks < a.mean_clicks


def test_mechanistic_only_suppresses_after_click(tiny_weights):
    # With no photons and no darks there are no clicks, so suppression
    # never has anything to act on.
    det_m = DetectorSpec(
        efficiency=1.0,
        dark_prob_per_gate=(0.0, 0.0),
        gate_width=1e-9,
        deadtime=0.0,
        undershoot=MechanisticUndershoot(1.0),
    )
    batch = simulate_batch(Coherent(0.0), tiny_weights, det_m, 1000, seed=47)
    assert batch.histogram[0] == 1000


def test_full_suppression_halves_consecutive_runs():
    # Saturated source, p_miss_next=1: on each detector every second gate
    # in a consecutive click run is wiped out, so exactly ceil(16/2) clicks
    # remain per detector.
    sys32 = get_preset("rapid32")
    det_m = DetectorSpec(
        efficiency=1.0,
        dark_prob_per_gate=(0.0, 0.0),
        gate_width=2e-10,
        deadtime=9.78e-9,
        undershoot=MechanisticUndershoot(1.0),
    )
    weights = sys32.bin_weights()
    batch = simulate_batch(Coherent(1e4), weights, det_m, 200, seed=53)
    assert batch.histogram[16] == 200


def test_chi_square_goodness_of_fit(rapid32, rapid32_weights):
    mu, n = 50.0, 100_000
    batch = simulate_batch(Coherent(mu), rapid32_weights, rapid32.detector, n, seed=59)
    expect = coherent_click_distribution(mu, rapid32_weights, rapid32.detector).probs * n
    obs = batch.histogram.astype(float)
    # Pool cells with small expectation before the test.
    keep = expect >= 5.0
    o = np.append(obs[keep], obs[~keep].sum())
    e = np.append(expect[keep], expect[~keep].sum())
    chi2, p = stats.chisquare(o, e * o.sum() / e.sum())
    assert p > 1e-3


def test_invalid_shot_counts(rapid32, rapid32_weights):
    with pytest.raises(ValueError):
        simulate_batch(Coherent(1.0), rapid32_weights, rapid32.detector, 0, seed=0)
    with pytest.raises(ValueError):
        simulate_batch(Coherent(1.0), rapid32_weights, rapid32.detector, -5, seed=0)


def test_source_validation():
    with pytest.raises(ValueError):
        Coherent(-1.0)
    with pytest.raises(ValueError):
        Coherent(float("nan"))
    with pytest.raises(ValueError):
        Fock(-1)


@pytest.mark.parametrize(
    "n_photons",
    [2.5, 3.0, float("nan"), True, np.bool_(True), "3", None],
    ids=["2.5", "3.0", "nan", "True", "numpy-True", "str", "None"],
)
def test_fock_photon_number_must_be_an_integer(n_photons):
    # Before, 2.5 failed inside the kernel with a bare TypeError, nan after a
    # cast warning, and True ran as one photon.
    with pytest.raises(ValueError, match=r"^Fock\.n_photons must be an integer >= 0, got "):
        Fock(n_photons)


def test_fock_accepts_numpy_integers(lossy_small):
    weights, det = lossy_small
    source = Fock(np.int64(5))
    assert source == Fock(5) and type(source.n_photons) is int
    a = simulate_batch(source, weights, det, 500, seed=4)
    b = simulate_batch(Fock(5), weights, det, 500, seed=4)
    assert np.array_equal(a.histogram, b.histogram)
