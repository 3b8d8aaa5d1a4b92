"""The mc2 Monte Carlo kernel: equal in distribution to the exact laws, and
independent of how a run is split into chunks, workers, calls and routing
blocks.

The statistical checks run at fixed examples (derandomized) and fixed
seeds, so they are deterministic. Their bounds are TV <= sqrt(B / N) for
click-total histograms, about two and a half times the expected distance
of an N-shot histogram over B + 1 cells, and 4 standard errors for per-bin
click frequencies.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binflux.mc_engine as mc_engine
from binflux import (
    BinWeights,
    Coherent,
    DetectorSpec,
    Fock,
    GlobalEfficiency,
    MechanisticUndershoot,
    coherent_click_distribution,
    fock_click_distribution,
    per_bin_click_probabilities,
    poisson_binomial_pmf,
    simulate_batch,
    total_variation,
)

N_SHOTS = 20_000


@st.composite
def small_systems(draw, max_bins=12, mechanistic=False):
    """Hand-built bin weights (B in [1, max_bins], lossy) and a detector with darks."""
    b = draw(st.integers(min_value=1, max_value=max_bins))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=b, max_size=b)))
    transmission = draw(st.floats(0.3, 1.0))
    weights = BinWeights(
        weights=raw / raw.sum() * transmission,
        arrival_times=np.arange(b) * 1e-9,
        detector_of_bin=np.array(draw(st.lists(st.integers(0, 1), min_size=b, max_size=b))),
    )
    eff = draw(st.floats(0.05, 1.0))
    if mechanistic:
        undershoot = MechanisticUndershoot(draw(st.floats(0.05, 1.0)))
    elif draw(st.booleans()):
        undershoot = GlobalEfficiency(points=((0.0, eff), (30.0, eff * 0.7)))
    else:
        undershoot = None
    detector = DetectorSpec(
        efficiency=eff,
        dark_prob_per_gate=(draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05))),
        gate_width=1e-9,
        deadtime=0.0,
        undershoot=undershoot,
    )
    return weights, detector


def _assert_per_bin_within_4se(batch, p):
    se = np.sqrt(p * (1.0 - p) / batch.n_shots)
    assert np.all(np.abs(batch.bin_click_counts / batch.n_shots - p) <= 4 * se)


@given(system=small_systems(), mu=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_coherent_kernel_matches_exact_law(system, mu, seed):
    weights, detector = system
    batch = simulate_batch(Coherent(mu), weights, detector, N_SHOTS, seed)
    exact = coherent_click_distribution(mu, weights, detector).probs
    assert total_variation(batch.distribution, exact) <= math.sqrt(weights.num_bins / N_SHOTS)
    _assert_per_bin_within_4se(batch, per_bin_click_probabilities(mu, weights, detector))


@given(
    system=st.booleans().flatmap(lambda mechanistic: small_systems(mechanistic=mechanistic)),
    n_photons=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fock_kernel_matches_exact_law(system, n_photons, seed):
    weights, detector = system
    batch = simulate_batch(Fock(n_photons), weights, detector, N_SHOTS, seed)
    exact = fock_click_distribution(n_photons, weights, detector).probs
    assert total_variation(batch.distribution, exact) <= math.sqrt(weights.num_bins / N_SHOTS)


def brute_force_mechanistic(p, detector_of_bin, p_miss):
    """Exact click-total law and per-bin click probabilities of the mechanistic model.

    Enumerates every raw pattern (gate b fires with p[b], independently)
    and every pattern of miss draws (each p_miss), then applies the
    sequential suppression: on each detector, in bin order, a raw click is
    lost when the previous gate of that detector clicked and its miss draw
    came up.
    """
    b = len(p)
    hist, per_bin = np.zeros(b + 1), np.zeros(b)
    bins = [np.flatnonzero(detector_of_bin == d) for d in (0, 1)]
    for raw in itertools.product((False, True), repeat=b):
        w_raw = math.prod(p[j] if raw[j] else 1.0 - p[j] for j in range(b))
        for miss in itertools.product((False, True), repeat=b):
            w = w_raw * math.prod(p_miss if m else 1.0 - p_miss for m in miss)
            clicks = np.zeros(b, dtype=bool)
            for detector_bins in bins:
                prev = False
                for j in detector_bins:
                    clicks[j] = raw[j] and not (prev and miss[j])
                    prev = clicks[j]
            hist[clicks.sum()] += w
            per_bin += w * clicks
    return hist, per_bin


@given(system=small_systems(max_bins=6, mechanistic=True), mu=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_mechanistic_kernel_matches_enumeration(system, mu, seed):
    weights, detector = system
    p = per_bin_click_probabilities(mu, weights, detector)
    hist, per_bin = brute_force_mechanistic(p, weights.detector_of_bin, detector.undershoot.p_miss_next)
    batch = simulate_batch(Coherent(mu), weights, detector, N_SHOTS, seed)
    assert total_variation(batch.distribution, hist) <= math.sqrt(weights.num_bins / N_SHOTS)
    _assert_per_bin_within_4se(batch, per_bin)


def test_brute_force_reduces_to_independent_gates(lossy_small):
    # With p_miss = 0 the enumeration is the Poisson-binomial law.
    weights, detector = lossy_small
    p = per_bin_click_probabilities(3.0, weights, detector)[:6]
    hist, per_bin = brute_force_mechanistic(p, weights.detector_of_bin[:6], 0.0)
    assert np.allclose(hist, poisson_binomial_pmf(p), rtol=0, atol=1e-14)
    assert np.allclose(per_bin, p, rtol=0, atol=1e-14)


@st.composite
def split_runs(draw):
    kind = draw(st.sampled_from(["coherent", "fock", "mechanistic"]))
    weights, detector = draw(small_systems(max_bins=8, mechanistic=kind == "mechanistic"))
    source = Fock(draw(st.integers(0, 20))) if kind == "fock" else Coherent(draw(st.floats(0.0, 30.0)))
    n_shots = draw(st.integers(1, 300))
    return dict(
        source=source,
        weights=weights,
        detector=detector,
        n_shots=n_shots,
        seed=draw(st.integers(0, 2**32 - 1)),
        start_shot=draw(st.integers(0, 1000)),
        split=draw(st.integers(0, n_shots)),
        chunk_size=draw(st.integers(1, n_shots + 5)),
        workers=draw(st.sampled_from([1, 2])),
        route_block=draw(st.integers(1, 64)),
    )


@given(run=split_runs())
@settings(max_examples=60, deadline=None)
def test_outputs_do_not_depend_on_how_the_run_is_split(run):
    source, weights, detector, seed = run["source"], run["weights"], run["detector"], run["seed"]
    start, n, split = run["start_shot"], run["n_shots"], run["split"]
    ref = simulate_batch(source, weights, detector, n, seed, start_shot=start, store_totals=True, workers=1)
    with mock.patch.object(mc_engine, "_ROUTE_BLOCK_CELLS", run["route_block"]):
        parts = [
            simulate_batch(
                source, weights, detector, m, seed, start_shot=s, store_totals=True,
                chunk_size=run["chunk_size"], workers=run["workers"],
            )
            for s, m in ((start, split), (start + split, n - split))
            if m > 0
        ]
    assert np.array_equal(sum(p.histogram for p in parts), ref.histogram)
    assert np.array_equal(sum(p.bin_click_counts for p in parts), ref.bin_click_counts)
    assert np.array_equal(np.concatenate([p.click_totals for p in parts]), ref.click_totals)
    if ref.photon_sum is None:
        assert all(p.photon_sum is None for p in parts)
    else:
        assert np.array_equal(sum(p.photon_sum for p in parts), ref.photon_sum)


@pytest.mark.parametrize("n_shots, chunk_size, workers, pool_size", [(30, 10, 8, 3), (30, 64, 2, None)])
def test_workers_clamped_to_chunk_count(lossy_small, n_shots, chunk_size, workers, pool_size):
    weights, detector = lossy_small
    sizes = []
    real_pool = mc_engine.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    with mock.patch.object(mc_engine, "ThreadPoolExecutor", recording_pool):
        batch = simulate_batch(
            Coherent(2.0), weights, detector, n_shots, 3, chunk_size=chunk_size, workers=workers
        )
    assert batch.histogram.sum() == n_shots
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize(
    "source, mechanistic, lanes",
    [(Coherent(5.0), False, 8), (Coherent(5.0), True, 16), (Fock(7), False, 15), (Fock(7), True, 23)],
)
def test_lane_layout(lossy_small, source, mechanistic, lanes):
    # B lanes per coherent shot and n + B per Fock shot, plus B undershoot
    # lanes only for a history-dependent detector (lossy_small has B = 8).
    weights, detector = lossy_small
    if mechanistic:
        detector = DetectorSpec(
            efficiency=detector.efficiency,
            dark_prob_per_gate=detector.dark_prob_per_gate,
            gate_width=detector.gate_width,
            deadtime=detector.deadtime,
            undershoot=MechanisticUndershoot(0.4),
        )
    assert mc_engine._Kernel(source, weights, detector).lanes == lanes
