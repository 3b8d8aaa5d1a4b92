"""The mc4 Monte Carlo kernel: equal in distribution to the exact laws,
independent of how a run is split into chunks, workers and calls, and equal
shot for shot to a float reference kernel. The law of its gate decisions is
within B * 2**-32 of the exact law (2B * 2**-32 with undershoot misses).

The statistical checks run at fixed examples (derandomized) and fixed
seeds, so they are deterministic. Their bounds are TV <= sqrt(B / N) for
click-total histograms, about two and a half times the expected distance
of an N-shot histogram over B + 1 cells, and 4 standard errors for per-bin
click frequencies.
"""

import concurrent.futures
import dataclasses
import itertools
from fractions import Fraction
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
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
    coherent_click_distribution,
    fock_click_distribution,
    get_preset,
    simulate_batch,
    total_variation,
)
from binflux._rng import gate_threshold, half_words, lane_threshold, seed_sequence, uniform_lanes
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


def _run_kernel(source, weights, detector, seed, start, n):
    """_Kernel.run on the stream words of shots [start, start + n)."""
    kernel = mc_engine._Kernel(source, weights, detector)
    return kernel.run(uniform_lanes(seed_sequence(seed), start, n, kernel.lanes))


def _assert_per_bin_within_4se(source, weights, detector, seed, p):
    """Per-bin click frequencies of the first N_SHOTS shots, read from the kernel's clicks."""
    clicks, _, _ = _run_kernel(source, weights, detector, seed, 0, N_SHOTS)
    se = np.sqrt(p * (1.0 - p) / N_SHOTS)
    assert np.all(np.abs(clicks.sum(axis=0) / N_SHOTS - p) <= 4 * se)


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
def test_outputs_do_not_depend_on_how_the_run_is_split(simulate_in_chunks, run):
    source, weights, detector, seed = run["source"], run["weights"], run["detector"], run["seed"]
    start, n, split = run["start_shot"], run["n_shots"], run["split"]
    ref = simulate_batch(source, weights, detector, n, seed, start_shot=start, store_totals=True, workers=1)
    parts = [
        simulate_in_chunks(
            run["chunk_size"], source, weights, detector, m, seed, start_shot=s, store_totals=True,
            workers=run["workers"],
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
def test_workers_clamped_to_chunk_count(lossy_small, simulate_in_chunks, n_shots, chunk_size, workers, pool_size):
    weights, detector = lossy_small
    sizes = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", recording_pool):
        batch = simulate_in_chunks(chunk_size, Coherent(2.0), weights, detector, n_shots, 3, workers=workers)
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
    "source, mechanistic, decisions",
    [(Coherent(5.0), False, 8), (Coherent(5.0), True, 16), (Fock(7), False, 15), (Fock(7), True, 23)],
)
def test_lane_layout(lossy_small, source, mechanistic, decisions):
    # Decisions per shot: B gates per coherent shot and n photons + B gates
    # per Fock shot, plus B undershoot misses only for a history-dependent
    # detector (lossy_small has B = 8). A photon takes a full lane and a
    # gate decision half of one: 4, 8, 11 and 15 lanes.
    weights, detector = lossy_small
    if mechanistic:
        detector = DetectorSpec(
            efficiency=detector.efficiency,
            dark_prob_per_gate=detector.dark_prob_per_gate,
            gate_width=detector.gate_width,
            deadtime=detector.deadtime,
            undershoot=MechanisticUndershoot(0.4),
        )
    photons = source.n_photons if isinstance(source, Fock) else 0
    assert mc_engine._Kernel(source, weights, detector).lanes == photons + (decisions - photons) // 2


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


HALF_MAX = 2**32 - 1


def _p_below(p) -> Fraction:
    """P(h < ceil(p * 2**32)) for a uniform 32-bit h, as the kernel decides it: (h < t) | full."""
    t, full = gate_threshold(p)
    return Fraction(1) if bool(full) else Fraction(int(t), 2**32)


@given(p=st.one_of(probabilities(), st.floats(1.0 - 2.0**-30, 1.0), st.integers(0, 2**32).map(lambda k: k * 2.0**-32)))
@settings(max_examples=500, deadline=None)
def test_gate_threshold_is_within_two_to_the_minus_32_of_p(p):
    # Exact rational arithmetic: the half-word event has probability in [p, p + 2**-32), p <= 1.
    below, exact = _p_below(p), Fraction(min(p, 1.0))
    assert exact <= below < exact + Fraction(1, 2**32)
    assert abs((1 - below) - (1 - exact)) < Fraction(1, 2**32)  # P(h >= ceil(p * 2**32)) against 1 - p


@given(p=probabilities(), halves=st.lists(st.integers(0, HALF_MAX), max_size=20))
@settings(max_examples=300, deadline=None)
def test_gate_threshold_decides_like_the_float_half_word(p, halves):
    # Half-words on both sides of p * 2**32 and at the ends of the range, plus random ones.
    edge = math.floor(math.ldexp(p, 32))
    h = np.array([v for v in [edge + d for d in (-1, 0, 1, 2)] + halves + [0, HALF_MAX] if 0 <= v <= HALF_MAX],
                 dtype=np.uint32)
    t, full = gate_threshold(p)
    assert t.dtype == np.uint32 and full.dtype == bool
    assert np.array_equal((h < t) | full, h * 2.0**-32 < p)


def test_gate_threshold_values():
    t, full = gate_threshold([0.0, 5e-324, 2.0**-32, 0.5, 1.0 - 2.0**-32, 1.0 - 2.0**-53, 1.0, 1.5])
    assert t.tolist() == [0, 1, 1, 2**31, HALF_MAX, HALF_MAX, HALF_MAX, HALF_MAX]
    assert full.tolist() == [False, False, False, False, False, True, True, True]


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


def _assert_fock_hits_equal_full_routing(kernel, words):
    """_fock_hits on raw words against np.searchsorted over every lane w >> 11, the lost cell B dropped afterwards."""
    m, b = words.shape[0], kernel.n_bins
    cells = np.searchsorted(kernel.route, words >> np.uint64(11), side="right")
    expected = np.zeros((m, b + 1), dtype=bool)
    expected[np.arange(m)[:, None], cells] = True
    hit, photons = kernel._fock_hits(words)
    assert np.array_equal(hit, expected[:, :b])
    assert np.array_equal(photons, np.bincount(cells.ravel(), minlength=b + 1)[:b])


# Low 11 bits under a photon lane: none set, all set, and mixed ones.
LOW_BITS = (0, 2047, 1, 1024, 377)


def _raw(lanes, low):
    """Raw words (lane << 11) | low for 53-bit lanes."""
    return (np.asarray(lanes, dtype=np.uint64) << np.uint64(11)) | np.asarray(low, dtype=np.uint64)


def _lanes_around(thresholds, n):
    """Raw words of each threshold lane, its two neighbours and the lane extremes, cycled through rows
    of n photon words. Every lane comes with every low-bit pattern of LOW_BITS, and the pattern changes
    from one word to the next."""
    values = [int(t) + d for t in thresholds for d in (-1, 0, 1)] + [0, LANE_MAX]
    lanes = np.array([v for v in values if 0 <= v <= LANE_MAX], dtype=np.uint64)
    k = np.arange(lanes.size * len(LOW_BITS))
    words = _raw(lanes[k % lanes.size], np.array(LOW_BITS)[(k // lanes.size + k) % len(LOW_BITS)])
    return np.resize(words, (words.size, n))


def _weights(w):
    return BinWeights(np.array(w), np.arange(len(w)) * 1e-9, np.arange(len(w)) % 2)


def test_fock_hits_at_the_lost_cell_threshold():
    # A lane equal to route[B - 1] is lost, whatever its low bits; one below it lands in bin B - 1.
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(3), system.bin_weights(), system.detector)
    b = kernel.n_bins
    lost = int(kernel.route[b - 1])
    for low in LOW_BITS:
        hit, photons = kernel._fock_hits(_raw([[lost - 1, lost, lost + 1]], low))
        assert np.array_equal(np.flatnonzero(hit[0]), [b - 1]) and photons.sum() == 1
    _assert_fock_hits_equal_full_routing(kernel, _lanes_around(kernel.route, 3))


def _lanes_of_halves(halves) -> np.ndarray:
    """Pack half-words (shots, 2L), low half first, into lanes (shots, L), independently of half_words."""
    h = np.asarray(halves, dtype=np.uint64)
    return h[:, 0::2] | (h[:, 1::2] << np.uint64(32))


def test_half_words_are_low_half_first():
    lanes = np.array([[0x0123456789ABCDEF, 2**64 - 1], [1, 2**32]], dtype=np.uint64)
    assert half_words(lanes).tolist() == [[0x89ABCDEF, 0x01234567, 2**32 - 1, 2**32 - 1], [1, 0, 0, 1]]
    halves = np.arange(12, dtype=np.uint32).reshape(2, 6) * 0x10001
    assert np.array_equal(half_words(_lanes_of_halves(halves)), halves)


def test_fock_dark_lanes_at_the_dark_threshold():
    # A dark half-word equal to its threshold stays silent; one below it clicks.
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(0), system.bin_weights(), system.detector)
    t, full = kernel.dark
    assert t.min() > 0 and not full.any()
    lanes = _lanes_of_halves(np.stack([t, t - 1]))
    clicks, totals, photons = kernel.run(lanes)
    assert not clicks[0].any() and clicks[1].all()
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
def test_fock_hits_on_stream_lanes(n_photons):
    system = get_preset("rapid32")
    kernel = mc_engine._Kernel(Fock(n_photons), system.bin_weights(), system.detector)
    words = uniform_lanes(seed_sequence(9), 100, 300, kernel.lanes)[:, :n_photons]
    _assert_fock_hits_equal_full_routing(kernel, words)
    _assert_fock_hits_equal_full_routing(kernel, _lanes_around(kernel.route, n_photons))


# ------------------------------------------------ float reference kernel


def reference_layout(source, weights, detector):
    """(lanes per shot, photon lanes, gate decisions) of the mc4 layout, from its definition."""
    b = weights.num_bins
    n = source.n_photons if isinstance(source, Fock) else 0
    gates = 2 * b if detector.history_dependent else b
    return n + (gates + 1) // 2, n, gates


def reference_clicks(words, source, weights, detector):
    """The float kernel, kept as a test oracle, on raw words (shots, lanes).

    Photon lane j gives u = (w >> 11) * 2**-53, Generator.random's double;
    gate decision g reads half g % 2 of lane n + g // 2 (low half first) as
    u = h * 2**-32. Coherent gate b clicks when u >= its no-click
    probability, a Fock gate's dark count fires when u < its dark
    probability and an undershoot miss when u < p_miss_next. Photons are
    routed with searchsorted and gates suppressed column by column.
    Returns per-shot clicks (shots, B), click totals and detected photons
    per bin (None for coherent sources).
    """
    b = weights.num_bins
    n_shots = words.shape[0]
    _, n, gates = reference_layout(source, weights, detector)
    g = np.arange(gates)
    halves = (words[:, n + g // 2] >> (32 * (g % 2)).astype(np.uint64)) & np.uint64(2**32 - 1)
    u_gate = halves.astype(float) * 2.0**-32
    if isinstance(source, Coherent):
        photons = None
        clicks = u_gate[:, :b] >= no_click_probabilities(source.mu, weights, detector)
    else:
        eta = effective_efficiency(detector, float(n))
        cells = np.append(weights.weights * eta, max(0.0, 1.0 - eta * weights.weights.sum()))
        route_cum = np.cumsum(cells)
        route_cum[-1] = max(route_cum[-1], 1.0)
        u_photon = (words[:, :n] >> np.uint64(11)).astype(float) * 2.0**-53
        idx = np.searchsorted(route_cum, u_photon, side="right") + (b + 1) * np.arange(n_shots)[:, None]
        counts = np.bincount(idx.ravel(), minlength=n_shots * (b + 1)).reshape(n_shots, b + 1)[:, :b]
        photons = counts.sum(axis=0)
        clicks = (counts > 0) | (u_gate[:, :b] < per_bin_dark_probabilities(weights, detector))
    if detector.history_dependent:
        p_miss = detector.undershoot.p_miss_next
        for d in (0, 1):
            prev = np.zeros(n_shots, dtype=bool)
            for j in np.flatnonzero(weights.detector_of_bin == d):
                clicks[:, j] &= ~(prev & (u_gate[:, b + j] < p_miss))
                prev = clicks[:, j]
    return clicks, clicks.sum(axis=1), photons


def stream_words(seed, n_words):
    """The first n_words words of a seed's stream, from its definition: PCG64DXSM on SeedSequence([seed])."""
    return np.random.PCG64DXSM(np.random.SeedSequence([seed])).random_raw(n_words)


def reference_kernel(source, weights, detector, seed, start_shot, n_shots):
    """reference_clicks on shots [start_shot, start_shot + n_shots): shot i reads words [i * L, (i + 1) * L)."""
    lanes, _, _ = reference_layout(source, weights, detector)
    words = stream_words(seed, (start_shot + n_shots) * lanes)[start_shot * lanes :]
    return reference_clicks(words.reshape(n_shots, lanes), source, weights, detector)


@pytest.mark.parametrize("lanes", [1, 3, 8, 16, 28, 216])
def test_lanes_are_consecutive_words_of_one_stream(lanes):
    # No word is reserved or skipped: shot i reads words [i * L, (i + 1) * L), for any L.
    seed, shots = 2026, 50
    words = stream_words(seed, shots * lanes).reshape(shots, lanes)
    for start in (0, 1, 2, 3, 5, 7, 13, 49):
        rows = uniform_lanes(seed_sequence(seed), start, shots - start, lanes)
        assert rows.dtype == np.uint64 and np.array_equal(rows, words[start:])
    for start in (0, 10**12 + 3):
        bulk = uniform_lanes(seed_sequence(seed), start, shots, lanes)
        cuts = [0, 1, 6, 7, 22, 23, shots]
        split = [uniform_lanes(seed_sequence(seed), start + a, b - a, lanes) for a, b in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(np.concatenate(split), bulk)
    assert uniform_lanes(seed_sequence(seed), 5, 0, lanes).shape == (0, lanes)


def _assert_kernel_equals_reference(
    simulate_in_chunks, source, weights, detector, seed, start, n, chunk_size, workers
):
    ref_clicks, ref_totals, ref_photons = reference_kernel(source, weights, detector, seed, start, n)
    batch = simulate_in_chunks(
        chunk_size, source, weights, detector, n, seed, start_shot=start, workers=workers, store_totals=True
    )
    assert np.array_equal(batch.click_totals, ref_totals)
    assert batch.click_totals.dtype == np.int64
    assert np.array_equal(batch.histogram, np.bincount(ref_totals, minlength=weights.num_bins + 1))
    if ref_photons is None:
        assert batch.photon_sum is None
    else:
        assert np.array_equal(batch.photon_sum, ref_photons)
    clicks, _, _ = _run_kernel(source, weights, detector, seed, start, n)
    assert np.array_equal(clicks, ref_clicks)


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
        # The reference draws every word from the stream's start; test_lanes_are_consecutive_words_of_one_stream
        # covers far starts.
        start=draw(st.integers(0, 5000)), n=n, chunk_size=draw(st.integers(1, n + 5)),
        workers=draw(st.sampled_from([1, 2])),
    )


@given(run=reference_runs())
@settings(max_examples=80, deadline=None)
def test_kernel_equals_float_reference_shot_for_shot(simulate_in_chunks, run):
    _assert_kernel_equals_reference(simulate_in_chunks, **run)


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
def test_kernel_equals_float_reference_on_presets(simulate_in_chunks, source, preset, mechanistic):
    system = get_preset(preset)
    detector = _mechanistic(system) if mechanistic else system.detector
    _assert_kernel_equals_reference(
        simulate_in_chunks, source, system.bin_weights(), detector, 2026, 12_345, 700, 256, 2
    )


# ------------------------------------------------ click totals in shot rows


@pytest.mark.parametrize("b", [8, 248, 249, 256, 300, 2048])
def test_click_totals_count_every_gate_of_a_full_row(b):
    # Words are added in groups before their byte count: a group of more than 31 words of
    # ones would carry a byte sum of 256 out of the count. Pad bytes past B stay zero.
    rows = np.zeros((3, -(-b // 8) * 8), dtype=bool)
    rows[0, :b] = True
    rows[2, : b // 2] = True
    totals = mc_engine._click_totals(rows, np.uint8 if b < 256 else np.uint32)
    assert totals.tolist() == [b, 0, b // 2]


TOTALS_SOURCES = {
    # About 0.7 and 8 detected photons per bin on average: mixed and nearly full totals.
    "dim": lambda b: Coherent(2.0 * b),
    "bright": lambda b: Coherent(25.0 * b),
    "fock": lambda b: Fock(2 * b),
}


@pytest.mark.parametrize("loops", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("kind", sorted(TOTALS_SOURCES))
@pytest.mark.parametrize("mechanistic", [False, True])
def test_click_totals_equal_the_summed_clicks(simulate_in_chunks, loops, kind, mechanistic):
    # B = 4, 8, 16, 32 and 256: rows of 4 gates are padded to a whole word, 256 gates total past uint8.
    weights = build_bin_weights(
        MultiplexerSpec(loop_delays=tuple(2.0**i * 1e-9 for i in range(loops)), transmission=UniformLoss(0.8))
    )
    b = weights.num_bins
    detector = DetectorSpec(
        efficiency=0.4, dark_prob_per_gate=(0.01, 0.002), gate_width=1e-9, deadtime=0.0,
        undershoot=MechanisticUndershoot(0.3) if mechanistic else None,
    )
    source, seed, start, n = TOTALS_SOURCES[kind](b), 31, 57, 300
    # Free a block of 0xFF bytes the size of the kernel's padded rows, so that rows carved from it
    # show any pad byte left unset.
    junk = np.full(n * -(-b // 8) * 8, 0xFF, dtype=np.uint8)
    del junk
    clicks, totals, _ = _run_kernel(source, weights, detector, seed, start, n)
    assert clicks.shape == (n, b) and clicks.dtype == bool
    assert totals.dtype == (np.uint8 if b < 256 else np.uint32)
    assert np.array_equal(totals, clicks.sum(axis=1))
    for chunk_size in (7, n):
        _assert_kernel_equals_reference(simulate_in_chunks, source, weights, detector, seed, start, n, chunk_size, 1)


# ------------------------------------------------ the B * 2**-32 bound and the certain gates


def _mc3_below(p):
    """P(h < ceil(p * 2**32)) per gate, as floats (t * 2**-32 is exact)."""
    t, full = gate_threshold(p)
    return np.where(full, 1.0, t * 2.0**-32)


@pytest.mark.parametrize("preset", ["rapid32", "conventional16"])
@pytest.mark.parametrize("mu", [0.0, 1e-3, 1.0, 10.0, 100.0, 400.0, 4000.0])
def test_coherent_click_law_within_b_times_two_to_the_minus_32(preset, mu):
    # A gate clicks when h >= ceil(q * 2**32), q its no-click probability, so
    # the mc3 click total is Poisson-binomial in 1 - P(h < ceil(q * 2**32)).
    system = get_preset(preset)
    weights = system.bin_weights()
    q = no_click_probabilities(mu, weights, system.detector)
    mc3 = poisson_binomial_pmf(1.0 - _mc3_below(q))
    exact = coherent_click_distribution(mu, weights, system.detector).probs
    assert total_variation(mc3, exact) <= weights.num_bins * 2.0**-32


@given(system=small_systems(max_bins=6, mechanistic=True), mu=st.floats(0.0, 40.0))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_mechanistic_click_law_within_2b_times_two_to_the_minus_32(system, mu):
    weights, detector = system
    q = no_click_probabilities(mu, weights, detector)
    p_miss = detector.undershoot.p_miss_next
    mc3, _ = brute_force_mechanistic(1.0 - _mc3_below(q), weights.detector_of_bin, float(_mc3_below(p_miss)))
    exact, _ = brute_force_mechanistic(1.0 - q, weights.detector_of_bin, p_miss)
    assert total_variation(mc3, exact) <= 2 * weights.num_bins * 2.0**-32


# Largest dark probability a detector accepts: its threshold is 2**32, so the gate is certain.
DARK_MAX = float(np.nextafter(1.0, 0.0))


def _detector(system, dark=None, p_miss=None):
    detector = system.detector
    if dark is not None:
        detector = dataclasses.replace(detector, dark_prob_per_gate=(dark, dark))
    if p_miss is not None:
        detector = dataclasses.replace(detector, undershoot=MechanisticUndershoot(p_miss))
    return detector


def _alternate(detector_of_bin):
    """Clicks left when every gate fires and every miss comes up: every other gate of each detector."""
    return sum(-(-int(np.sum(detector_of_bin == d)) // 2) for d in (0, 1))


R32_BINS = get_preset("rapid32").bin_weights()
CERTAIN_CASES = {
    "coherent0-no-dark": (Coherent(0.0), dict(dark=0.0), 0),
    "coherent1e308": (Coherent(1e308), {}, 32),
    "fock0-no-dark": (Fock(0), dict(dark=0.0), 0),
    "fock0-dark-max": (Fock(0), dict(dark=DARK_MAX), 32),
    "fock3-dark-max": (Fock(3), dict(dark=DARK_MAX), 32),
    "coherent1e308-miss0": (Coherent(1e308), dict(p_miss=0.0), 32),
    "coherent1e308-miss1": (Coherent(1e308), dict(p_miss=1.0), _alternate(R32_BINS.detector_of_bin)),
    "coherent0-no-dark-miss1": (Coherent(0.0), dict(dark=0.0, p_miss=1.0), 0),
}


@pytest.mark.parametrize("name", sorted(CERTAIN_CASES))
def test_certain_gates_stay_certain(name):
    # p = 0 and p = 1 give the same clicks in every shot, on stream words and on
    # the extreme words, whose half-words are all 0 or all 2**32 - 1.
    source, tweaks, total = CERTAIN_CASES[name]
    system = get_preset("rapid32")
    weights, detector = system.bin_weights(), _detector(system, **tweaks)
    batch = simulate_batch(source, weights, detector, 3000, 5, store_totals=True)
    assert np.all(batch.click_totals == total)
    kernel = mc_engine._Kernel(source, weights, detector)
    for word in (0, 2**64 - 1):
        lanes = np.full((4, kernel.lanes), word, dtype=np.uint64)
        clicks, totals, _ = kernel.run(lanes)
        assert np.all(totals == total) and np.array_equal(clicks, reference_clicks(lanes, source, weights, detector)[0])


def _threshold_words(kernel, source, weights, detector, rows=10):
    """Lanes whose half-words sit at each gate's threshold, one either side and at the ends of the range,
    and whose photon words sit at the routing thresholds with varied low bits."""
    _, n, gates = reference_layout(source, weights, detector)
    if isinstance(source, Coherent):
        parts = [kernel.silent]
    else:
        parts = [kernel.dark]
    if kernel.miss is not None:
        parts.append(kernel.miss)
    t = np.concatenate([p[0] for p in parts]).astype(np.int64)
    candidates = np.stack([t - 1, t, t + 1, np.zeros_like(t), np.full_like(t, HALF_MAX)])
    halves = np.clip(candidates[(np.arange(rows)[:, None] + np.arange(gates)) % 5, np.arange(gates)], 0, HALF_MAX)
    if gates % 2:
        halves = np.hstack([halves, np.zeros((rows, 1), dtype=np.int64)])
    words = _lanes_of_halves(halves)
    if n:
        words = np.hstack([np.resize(_lanes_around(kernel.route, n), (rows, n)), words])
    return words


THRESHOLD_CASES = {
    "coherent100": (Coherent(100.0), {}),
    "coherent3-mech": (Coherent(3.0), dict(p_miss=0.3)),
    "coherent0-no-dark": (Coherent(0.0), dict(dark=0.0)),
    "coherent100-miss1": (Coherent(100.0), dict(p_miss=1.0)),
    "fock3": (Fock(3), {}),
    "fock3-dark-max": (Fock(3), dict(dark=DARK_MAX)),
    "fock40-mech": (Fock(40), dict(p_miss=0.3)),
}


@pytest.mark.parametrize("name", sorted(THRESHOLD_CASES))
def test_kernel_equals_float_reference_at_the_thresholds(name):
    # Stream words almost never land on a threshold; these words do on every gate.
    source, tweaks = THRESHOLD_CASES[name]
    system = get_preset("rapid32")
    weights, detector = system.bin_weights(), _detector(system, **tweaks)
    kernel = mc_engine._Kernel(source, weights, detector)
    words = _threshold_words(kernel, source, weights, detector)
    assert words.shape[1] == kernel.lanes
    ref_clicks, ref_totals, ref_photons = reference_clicks(words, source, weights, detector)
    clicks, totals, photons = kernel.run(words)
    assert np.array_equal(clicks, ref_clicks) and np.array_equal(totals, ref_totals)
    assert (photons is None) == (ref_photons is None)
    if photons is not None:
        assert np.array_equal(photons, ref_photons)
