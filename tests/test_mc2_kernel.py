"""The mc2 Monte Carlo kernel: equal in distribution to the exact laws,
independent of how a run is split into chunks, workers and calls, and equal
shot for shot to a float reference kernel.

The statistical checks run at fixed examples (derandomized) and fixed
seeds, so they are deterministic. Their bounds are TV <= sqrt(B / N) for
click-total histograms, about two and a half times the expected distance
of an N-shot histogram over B + 1 cells, and 4 standard errors for per-bin
click frequencies.
"""

import concurrent.futures
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
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
    get_preset,
    simulate_batch,
    total_variation,
)
from binflux._rng import lane_threshold, philox_key, uniform_lanes
from binflux.detector_model import (
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from binflux.exact_oracle import poisson_binomial_pmf

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


def _assert_per_bin_within_4se(source, weights, detector, seed, p):
    """Per-bin click frequencies of the first N_SHOTS shots, read from the kernel's clicks."""
    clicks, _, _ = mc_engine._Kernel(source, weights, detector).run(philox_key(seed), 0, N_SHOTS)
    se = np.sqrt(p * (1.0 - p) / N_SHOTS)
    assert np.all(np.abs(clicks.sum(axis=1) / N_SHOTS - p) <= 4 * se)


@given(system=small_systems(), mu=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_coherent_kernel_matches_exact_law(system, mu, seed):
    weights, detector = system
    batch = simulate_batch(Coherent(mu), weights, detector, N_SHOTS, seed)
    exact = coherent_click_distribution(mu, weights, detector).probs
    assert total_variation(batch.distribution, exact) <= math.sqrt(weights.num_bins / N_SHOTS)
    p = 1.0 - no_click_probabilities(mu, weights, detector)
    _assert_per_bin_within_4se(Coherent(mu), weights, detector, seed, p)


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
    p = 1.0 - no_click_probabilities(mu, weights, detector)
    hist, per_bin = brute_force_mechanistic(p, weights.detector_of_bin, detector.undershoot.p_miss_next)
    batch = simulate_batch(Coherent(mu), weights, detector, N_SHOTS, seed)
    assert total_variation(batch.distribution, hist) <= math.sqrt(weights.num_bins / N_SHOTS)
    _assert_per_bin_within_4se(Coherent(mu), weights, detector, seed, per_bin)


def test_brute_force_reduces_to_independent_gates(lossy_small):
    # With p_miss = 0 the enumeration is the Poisson-binomial law.
    weights, detector = lossy_small
    p = 1.0 - no_click_probabilities(3.0, weights, detector)[:6]
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
    )


@given(run=split_runs())
@settings(max_examples=60, deadline=None)
def test_outputs_do_not_depend_on_how_the_run_is_split(run):
    source, weights, detector, seed = run["source"], run["weights"], run["detector"], run["seed"]
    start, n, split = run["start_shot"], run["n_shots"], run["split"]
    ref = simulate_batch(source, weights, detector, n, seed, start_shot=start, store_totals=True, workers=1)
    parts = [
        simulate_batch(
            source, weights, detector, m, seed, start_shot=s, store_totals=True,
            chunk_size=run["chunk_size"], workers=run["workers"],
        )
        for s, m in ((start, split), (start + split, n - split))
        if m > 0
    ]
    assert np.array_equal(sum(p.histogram for p in parts), ref.histogram)
    assert np.array_equal(np.concatenate([p.click_totals for p in parts]), ref.click_totals)
    if ref.photon_sum is None:
        assert all(p.photon_sum is None for p in parts)
    else:
        assert np.array_equal(sum(p.photon_sum for p in parts), ref.photon_sum)


@pytest.mark.parametrize("n_shots, chunk_size, workers, pool_size", [(30, 10, 8, 3), (30, 64, 2, None)])
def test_workers_clamped_to_chunk_count(lossy_small, n_shots, chunk_size, workers, pool_size):
    weights, detector = lossy_small
    sizes = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", recording_pool):
        batch = simulate_batch(
            Coherent(2.0), weights, detector, n_shots, 3, chunk_size=chunk_size, workers=workers
        )
    assert batch.histogram.sum() == n_shots
    assert sizes == ([] if pool_size is None else [pool_size])


def test_import_leaves_the_thread_pool_unloaded():
    # workers=1 never starts a pool, so importing binflux does not pay for concurrent.futures.
    src = str(Path(mc_engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, binflux; print('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


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


# ------------------------------------------------ integer lanes and thresholds

LANE_MAX = 2**53 - 1
SPECIAL_P = [
    0.0,
    5e-324,
    2.0**-1074 * 3,
    2.0**-53,
    3 * 2.0**-53,
    0.5,
    1.0 - 2.0**-53,
    1.0,
    float(np.nextafter(1.0, 2.0)),
    1.0 + 2.0**-40,
    1.5,
]


@st.composite
def probabilities(draw):
    return draw(
        st.one_of(
            st.sampled_from(SPECIAL_P),
            st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
            st.floats(0.0, 1.1),
            st.floats(0.0, 1e-12),
        )
    )


@given(p=probabilities(), lanes=st.lists(st.integers(0, LANE_MAX), max_size=20))
@settings(max_examples=300, deadline=None)
def test_lane_threshold_decides_like_the_float_uniform(p, lanes):
    # Lanes on both sides of p * 2**53 and at the ends of the range, plus random ones.
    edge = math.floor(math.ldexp(p, 53))
    near = [edge + d for d in (-1, 0, 1, 2)]
    lane = np.array([v for v in near + lanes + [0, LANE_MAX] if 0 <= v <= LANE_MAX], dtype=np.uint64)
    u = lane * 2.0**-53  # what Generator.random gives for the same word
    threshold = lane_threshold(p)
    assert threshold.dtype == np.uint64
    assert np.array_equal(lane >= threshold, u >= p)
    assert np.array_equal(lane < threshold, u < p)


def test_lane_threshold_values():
    assert lane_threshold([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]).tolist() == [
        0, 1, 1, 2**52, 2**53 - 1, 2**53,
    ]
    assert int(lane_threshold(float(np.nextafter(1.0, 2.0)))) == 2**53 + 2


@st.composite
def routing_tables(draw):
    """Cumulative routing thresholds as the kernel builds them, with zero and tiny weights."""
    weight = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 2.0**-53, 1e-15, 3e-13]))
    cells = np.array(draw(st.lists(weight, min_size=1, max_size=40)))
    if cells.sum() > 0:
        cells = cells / cells.sum() * draw(st.floats(0.1, 1.0))
    route_cum = np.cumsum(cells)
    route_cum[-1] = max(route_cum[-1], 1.0)
    return route_cum


@given(route_cum=routing_tables(), lanes=st.lists(st.integers(0, LANE_MAX), max_size=50))
@settings(max_examples=300, deadline=None)
def test_table_routing_equals_searchsorted(route_cum, lanes):
    route = lane_threshold(route_cum)
    table, span = mc_engine._routing_table(route)
    # Thresholds, their neighbours and bucket edges are where a lookup can go wrong.
    edges = [int(t) + d for t in route for d in (-1, 0, 1)]
    buckets = [k << mc_engine._ROUTE_SHIFT for k in range(0, mc_engine._ROUTE_BUCKETS, 511)]
    lane = np.array(
        [v for v in edges + buckets + [b - 1 for b in buckets] + lanes if 0 <= v <= LANE_MAX], dtype=np.uint64
    )
    got = mc_engine._route(lane, route, table, span)
    assert np.array_equal(got, np.searchsorted(route, lane, side="right"))
    assert np.array_equal(got, np.searchsorted(route_cum, lane * 2.0**-53, side="right"))


def test_routing_span_counts_thresholds_inside_one_bucket():
    # Three cells of 1e-17 put three thresholds into bucket 0: three fix-up steps.
    route = lane_threshold(np.cumsum([1e-17, 1e-17, 1e-17, 1.0]))
    table, span = mc_engine._routing_table(route)
    assert span == 3
    lane = np.arange(400, dtype=np.uint64)
    assert np.array_equal(mc_engine._route(lane, route, table, span), np.searchsorted(route, lane, side="right"))


@pytest.mark.parametrize("preset", ["rapid32", "conventional16"])
@pytest.mark.parametrize("n_photons", [1, 200])
def test_routing_span_is_one_on_the_presets(preset, n_photons):
    system = get_preset(preset)
    kernel = mc_engine._Kernel(Fock(n_photons), system.bin_weights(), system.detector)
    assert kernel.route_span == 1


# ------------------------------------------------ routing only the detected photons


def _assert_fock_hits_equal_full_routing(kernel, lanes):
    """_fock_hits against np.searchsorted over every lane, the lost cell B dropped afterwards."""
    m, b = lanes.shape[0], kernel.n_bins
    cells = np.searchsorted(kernel.route, lanes, side="right")
    expected = np.zeros((m, b + 1), dtype=bool)
    expected[np.arange(m)[:, None], cells] = True
    hit, photons = kernel._fock_hits(lanes)
    assert np.array_equal(hit, expected[:, :b])
    assert np.array_equal(photons, np.bincount(cells.ravel(), minlength=b + 1)[:b])


def _lanes_around(thresholds, n):
    """Each threshold and its two neighbours, plus the lane extremes, cycled through rows of n photon lanes."""
    values = [int(t) + d for t in thresholds for d in (-1, 0, 1)] + [0, LANE_MAX]
    values = np.array([v for v in values if 0 <= v <= LANE_MAX], dtype=np.uint64)
    return np.resize(values, (values.size, n))


def _weights(w):
    return BinWeights(np.array(w), np.arange(len(w)) * 1e-9, np.arange(len(w)) % 2)


def test_fock_hits_at_the_lost_cell_threshold():
    # A lane equal to route[B - 1] is lost; one below it lands in bin B - 1.
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(3), system.bin_weights(), system.detector)
    b = kernel.n_bins
    lost = kernel.route[b - 1]
    hit, photons = kernel._fock_hits(np.array([[lost - 1, lost, lost + 1]], dtype=np.uint64))
    assert np.array_equal(np.flatnonzero(hit[0]), [b - 1]) and photons.sum() == 1
    _assert_fock_hits_equal_full_routing(kernel, _lanes_around(kernel.route, 3))


def test_fock_dark_lanes_at_the_dark_threshold(monkeypatch):
    # A dark lane equal to dark[b] stays silent; one below it clicks.
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(0), system.bin_weights(), system.detector)
    assert kernel.dark.min() > 0
    lanes = np.stack([kernel.dark, kernel.dark - 1])
    monkeypatch.setattr(mc_engine, "uniform_lanes", lambda key, start, n, width: lanes)
    clicks, totals, photons = kernel.run(philox_key(0), 0, 2)
    assert not clicks[:, 0].any() and clicks[:, 1].all()
    assert totals.tolist() == [0, kernel.n_bins] and photons.sum() == 0


def test_fock_hits_with_a_zero_weight_last_bin(lossy_small):
    _, detector = lossy_small
    kernel = mc_engine._Kernel(Fock(4), _weights([0.3, 0.2, 0.1, 0.0]), detector)
    assert kernel.route[3] == kernel.route[2]
    lanes = _lanes_around(kernel.route, 4)
    _assert_fock_hits_equal_full_routing(kernel, lanes)
    assert not kernel._fock_hits(lanes)[0][:, 3].any()


def test_fock_hits_lose_no_lane_on_a_lossless_system(tiny_weights, ideal_detector):
    # eta * sum(w) = 1: route[B - 1] is 2**53, above every lane.
    kernel = mc_engine._Kernel(Fock(5), tiny_weights, ideal_detector)
    assert kernel.route[kernel.n_bins - 1] == 2**53
    lanes = _lanes_around(kernel.route, 5)
    _assert_fock_hits_equal_full_routing(kernel, lanes)
    assert kernel._fock_hits(lanes)[1].sum() == lanes.size


@pytest.mark.parametrize("n_photons", [0, 1, 200])
def test_fock_hits_on_philox_lanes(n_photons):
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(n_photons), system.bin_weights(), system.detector)
    lanes = uniform_lanes(philox_key(9), 100, 300, kernel.lanes)[:, :n_photons]
    _assert_fock_hits_equal_full_routing(kernel, lanes)
    _assert_fock_hits_equal_full_routing(kernel, _lanes_around(kernel.route, n_photons))


# ------------------------------------------------ float reference kernel


def reference_kernel(source, weights, detector, seed, start_shot, n_shots):
    """The float kernel the integer lanes replaced, kept as a test oracle.

    Draws uniforms with Generator.random, routes photons with searchsorted
    and suppresses gates column by column. Returns per-shot clicks
    (n_shots, B), click totals and detected photons per bin (None for
    coherent sources).
    """
    b = weights.num_bins
    if isinstance(source, Coherent):
        silent = no_click_probabilities(source.mu, weights, detector)
        lanes = b
    else:
        n = source.n_photons
        eta = effective_efficiency(detector, float(n))
        dark = per_bin_dark_probabilities(weights, detector)
        cells = np.append(weights.weights * eta, max(0.0, 1.0 - eta * weights.weights.sum()))
        route_cum = np.cumsum(cells)
        route_cum[-1] = max(route_cum[-1], 1.0)
        lanes = n + b
    us_off = lanes
    if detector.history_dependent:
        lanes += b
    steps = -(-lanes // 4)
    bitgen = np.random.Philox(counter=start_shot * steps, key=philox_key(seed))
    u = np.random.Generator(bitgen).random(n_shots * steps * 4).reshape(n_shots, steps * 4)[:, :lanes]
    if isinstance(source, Coherent):
        photons = None
        clicks = u[:, :b] >= silent
    else:
        idx = np.searchsorted(route_cum, u[:, :n], side="right") + (b + 1) * np.arange(n_shots)[:, None]
        counts = np.bincount(idx.ravel(), minlength=n_shots * (b + 1)).reshape(n_shots, b + 1)[:, :b]
        photons = counts.sum(axis=0)
        clicks = (counts > 0) | (u[:, n : n + b] < dark)
    if detector.history_dependent:
        p_miss = detector.undershoot.p_miss_next
        for d in (0, 1):
            prev = np.zeros(n_shots, dtype=bool)
            for j in np.flatnonzero(weights.detector_of_bin == d):
                clicks[:, j] &= ~(prev & (u[:, us_off + j] < p_miss))
                prev = clicks[:, j]
    return clicks, clicks.sum(axis=1), photons


def _assert_kernel_equals_reference(source, weights, detector, seed, start, n, chunk_size, workers):
    ref_clicks, ref_totals, ref_photons = reference_kernel(source, weights, detector, seed, start, n)
    batch = simulate_batch(
        source, weights, detector, n, seed, start_shot=start, chunk_size=chunk_size, workers=workers,
        store_totals=True,
    )
    assert np.array_equal(batch.click_totals, ref_totals)
    assert batch.click_totals.dtype == np.int64
    assert np.array_equal(batch.histogram, np.bincount(ref_totals, minlength=weights.num_bins + 1))
    if ref_photons is None:
        assert batch.photon_sum is None
    else:
        assert np.array_equal(batch.photon_sum, ref_photons)
    clicks, _, _ = mc_engine._Kernel(source, weights, detector).run(philox_key(seed), start, n)
    assert np.array_equal(clicks.T, ref_clicks)


@st.composite
def reference_runs(draw):
    weights, detector = draw(small_systems(max_bins=10, mechanistic=draw(st.booleans())))
    if draw(st.booleans()):
        # Zero and tiny bin weights give routing tables with route_span > 1.
        w = np.array(weights.weights)
        w[draw(st.integers(0, w.size - 1))] = draw(st.sampled_from([0.0, 1e-300, 1e-17]))
        weights = BinWeights(w, np.array(weights.arrival_times), np.array(weights.detector_of_bin))
    if draw(st.booleans()):
        source = Fock(draw(st.integers(0, 60)))
    else:
        source = Coherent(draw(st.floats(0.0, 60.0)))
    n = draw(st.integers(1, 400))
    return dict(
        source=source, weights=weights, detector=detector, seed=draw(st.integers(0, 2**32 - 1)),
        start=draw(st.integers(0, 10**9)), n=n, chunk_size=draw(st.integers(1, n + 5)),
        workers=draw(st.sampled_from([1, 2])),
    )


@given(run=reference_runs())
@settings(max_examples=80, deadline=None)
def test_kernel_equals_float_reference_shot_for_shot(run):
    _assert_kernel_equals_reference(**run)


def _mechanistic(system):
    return dataclasses.replace(system.detector, undershoot=MechanisticUndershoot(0.3))


@pytest.mark.parametrize(
    "source, preset, mechanistic",
    [
        (Coherent(100.0), "rapid32", False),
        (Coherent(10.0), "conventional16", False),
        (Coherent(100.0), "rapid32", True),
        (Fock(200), "rapid32", False),
        (Fock(200), "rapid32", True),
    ],
)
def test_kernel_equals_float_reference_on_presets(source, preset, mechanistic):
    system = get_preset(preset)
    detector = _mechanistic(system) if mechanistic else system.detector
    _assert_kernel_equals_reference(source, system.bin_weights(), detector, 2026, 12_345, 700, 256, 2)
