"""Array-at-once exact and inference layers against their row-by-row forms.

The references below are the row-by-row implementations the batched code
replaced, kept here so that every batched result can be compared with
them bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

import binflux.exact_oracle as exact_oracle
import binflux.inference as inference
from binflux import (
    DegenerateEvidenceError,
    DetectorSpec,
    GlobalEfficiency,
    MechanisticUndershoot,
    MultiplexerSpec,
    Posterior,
    SystemConfig,
    UniformLoss,
    build_matrix,
    credible_interval,
    posterior_single,
    relative_error_curve,
    stability_max_n,
    validate_interpolation,
)
from binflux.exact_oracle import poisson_binomial_pmf
from binflux.inference import _hpd_rows, _stability_tv


def reference_hpd(p, level):
    """The scalar greedy loop: grow from the mode, ties extend left."""
    lo = hi = int(np.argmax(p))
    mass = float(p[lo])
    while mass < level and (lo > 0 or hi < p.size - 1):
        left = p[lo - 1] if lo > 0 else -1.0
        right = p[hi + 1] if hi < p.size - 1 else -1.0
        if left >= right:
            lo -= 1
        else:
            hi += 1
        mass = float(p[lo : hi + 1].sum())
    return lo, hi, mass


def reference_pmf(click_probs):
    """One np.convolve per gate."""
    dist = np.array([1.0])
    for p in np.asarray(click_probs, dtype=float):
        dist = np.convolve(dist, [1.0 - p, p])
    np.clip(dist, 0.0, None, out=dist)
    return dist / dist.sum()


def reference_interpolation(rows, support):
    """Fill the rows between support points one mu at a time."""
    out = np.array(rows)
    for lo, hi in zip(support[:-1], support[1:]):
        for mu in range(lo + 1, hi):
            frac = (mu - lo) / (hi - lo)
            row = (1.0 - frac) * out[lo] + frac * out[hi]
            out[mu] = row / row.sum()
    return out


def reference_stability(wide, mu_max, tolerance):
    """The per-count loop: two posterior_single calls per count, zero-padded.

    Returns the cutoff (the count before the first unstable one) and the TV
    of every count, NaN where a count is impossible on [0, mu_max].
    """
    narrow = dataclasses.replace(wide, rows=wide.rows[: mu_max + 1], provenance=wide.provenance[: mu_max + 1])
    tvs = np.full(wide.num_bins + 1, np.nan)
    cutoff = None
    for n in range(wide.num_bins + 1):
        try:
            a = posterior_single(narrow, n).probs
            b = posterior_single(wide, n).probs
        except DegenerateEvidenceError:
            cutoff = n - 1 if cutoff is None else cutoff
            continue
        padded = np.zeros(b.size)
        padded[: a.size] = a
        tvs[n] = 0.5 * np.abs(padded - b).sum()
        if tvs[n] >= tolerance and cutoff is None:
            cutoff = n - 1
    return (wide.num_bins if cutoff is None else cutoff), tvs


@st.composite
def posterior_batches(draw):
    """(k, n) posteriors with many ties, or random, or bump-shaped, and a level."""
    n = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["integer", "uniform", "bumps"]))
    cells = k * n
    if kind == "integer":
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)), dtype=float)
    elif kind == "uniform":
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells)))
    else:
        x = np.arange(n)
        w = np.zeros(cells)
        for r in range(k):
            c = draw(st.floats(-5.0, n + 5.0))
            s = draw(st.floats(0.3, 3.0 * n))
            h = draw(st.floats(0.0, 1.0))
            w[r * n : (r + 1) * n] = np.exp(-0.5 * ((x - c) / s) ** 2) + h * np.exp(-0.5 * ((x - n / 3) / s) ** 2)
    w = w.reshape(k, n)
    w[:, draw(st.integers(0, n - 1))] += 1.0  # every row needs some mass
    P = w / w.sum(axis=1, keepdims=True)
    if kind == "integer" and draw(st.booleans()):
        # A level that equals an attainable interval mass exercises the
        # exact-sum fallback at the stop decision.
        total = int(w[0].sum())
        level = draw(st.integers(1, max(1, total - 1))) / total
        if not 0.0 < level < 1.0:
            level = 0.5
    else:
        level = draw(st.floats(1e-6, 1.0 - 1e-6))
    return P, level


@given(posterior_batches())
@settings(max_examples=400, deadline=None)
def test_hpd_rows_match_scalar_greedy_loop(case):
    P, level = case
    lo, hi = _hpd_rows(P, level)
    for i, p in enumerate(P):
        ref = reference_hpd(p, level)
        assert (int(lo[i]), int(hi[i])) == ref[:2]
        iv = credible_interval(Posterior(probs=p.copy(), log_evidence=0.0), level)
        assert (iv.lo, iv.hi, iv.mass) == ref


def test_hpd_rows_wider_than_the_largest_window(rapid32):
    # Every single-shot posterior of exact rapid32 on [0, 4000]; at n = 32
    # the interval spans over a thousand grid values, many passes of the
    # largest window.
    matrix = build_matrix(rapid32, 4000)
    posteriors = [posterior_single(matrix, n) for n in range(matrix.num_bins + 1)]
    P = np.array([post.probs for post in posteriors])
    for level in (0.5, 0.9, 0.99):
        lo, hi = _hpd_rows(P, level)
        for i, post in enumerate(posteriors):
            ref = reference_hpd(post.probs, level)
            assert (int(lo[i]), int(hi[i])) == ref[:2]
            iv = credible_interval(post, level)
            assert (iv.lo, iv.hi, iv.mass) == ref
    assert (hi - lo + 1).max() > 1000 > inference._HPD_MAX_WINDOW


@st.composite
def wide_posterior_batches(draw):
    """(k, 100..400) posteriors: tie-heavy integers, random, or bumps, and a level."""
    n = draw(st.integers(min_value=100, max_value=400))
    k = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["integer", "uniform", "bumps"]))
    if kind == "integer":
        w = draw(npst.arrays(np.int64, (k, n), elements=st.integers(0, 3))).astype(float)
    elif kind == "uniform":
        w = draw(npst.arrays(np.float64, (k, n), elements=st.floats(0.0, 1.0)))
    else:
        x = np.arange(n)
        w = np.zeros((k, n))
        for r in range(k):
            c = draw(st.floats(-20.0, n + 20.0))
            s = draw(st.floats(0.3, 2.0 * n))
            h = draw(st.floats(0.0, 1.0))
            w[r] = np.exp(-0.5 * ((x - c) / s) ** 2) + h * np.exp(-0.5 * ((x - n / 3) / s) ** 2)
    w[:, draw(st.integers(0, n - 1))] += 1.0  # every row needs some mass
    P = w / w.sum(axis=1, keepdims=True)
    total = int(w[0].sum())
    if kind == "integer" and total > 1 and draw(st.booleans()):
        # A level equal to an attainable interval mass hits the exact-sum fallback.
        level = draw(st.integers(1, total - 1)) / total
    else:
        level = draw(st.floats(1e-6, 1.0 - 1e-6))
    return P, level


@given(wide_posterior_batches())
@settings(max_examples=120, deadline=None)
def test_wide_hpd_rows_match_scalar_greedy_loop(case):
    P, level = case
    lo, hi = _hpd_rows(P, level)
    for i, p in enumerate(P):
        ref = reference_hpd(p, level)
        assert (int(lo[i]), int(hi[i])) == ref[:2]
        iv = credible_interval(Posterior(probs=p.copy(), log_evidence=0.0), level)
        assert (iv.lo, iv.hi, iv.mass) == ref


def test_hpd_rows_memory_stays_near_the_posterior_size():
    # A flat posterior grows every row across most of the grid, so the
    # windowed passes run to their cap; their temporaries must stay small
    # beside the (rows, mu) cumulative sums.
    P = np.full((400, 4001), 1.0 / 4001)
    tracemalloc.start()
    try:
        lo, hi = _hpd_rows(P, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * P.nbytes
    ref = reference_hpd(P[0], 0.9)
    assert np.all(lo == ref[0]) and np.all(hi == ref[1])


@given(
    m=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_batched_pmf_matches_per_row_convolution(m, b, data):
    probs = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=m * b, max_size=m * b), label="probs")
    ).reshape(m, b)
    got = poisson_binomial_pmf(probs)
    assert got.shape == (m, b + 1)
    for i in range(m):
        want = reference_pmf(probs[i])
        assert np.array_equal(got[i], want)
        assert np.array_equal(poisson_binomial_pmf(probs[i]), want)


@st.composite
def small_systems(draw):
    loops = draw(st.integers(min_value=1, max_value=3))
    ratios = tuple(draw(st.floats(0.05, 0.95)) for _ in range(loops + 1))
    eff = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        undershoot = GlobalEfficiency(points=((draw(st.floats(0.0, 20.0)), eff), (50.0, eff * 0.8)))
    else:
        undershoot = None
    return SystemConfig(
        name="random",
        multiplexer=MultiplexerSpec(
            loop_delays=tuple(float(2**i) * 1e-9 for i in range(loops)),
            coupler_ratios=ratios,
            transmission=UniformLoss(draw(st.floats(0.0, 3.0))),
        ),
        detector=DetectorSpec(
            efficiency=eff,
            dark_prob_per_gate=(draw(st.floats(0.0, 0.01)), draw(st.floats(0.0, 0.01))),
            gate_width=1e-9,
            deadtime=0.0,
            undershoot=undershoot,
        ),
    )


@given(system=small_systems(), mu_max=st.integers(min_value=1, max_value=80))
@settings(max_examples=60, deadline=None)
def test_exact_rows_do_not_depend_on_grid_bound(system, mu_max):
    narrow = build_matrix(system, mu_max).rows
    wide = build_matrix(system, 2 * mu_max).rows
    assert np.array_equal(narrow, wide[: mu_max + 1])


@pytest.mark.parametrize(
    "method, mu_max, support",
    [("exact", 2000, [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]), ("mc", 400, [100, 200, 300])],
)
def test_interpolated_rows_match_row_by_row_fill(rapid32, method, mu_max, support):
    kwargs = {"n_shots": 20_000, "seed": 5, "workers": 1} if method == "mc" else {}
    m = build_matrix(rapid32, mu_max, method, support=support, **kwargs)
    full = sorted(set(support) | {0, mu_max})
    assert np.array_equal(m.rows, reference_interpolation(m.rows, full))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_relative_error_curve_never_calls_credible_interval(monkeypatch, rapid32, rapid32_matrix400):
    calls = _count_calls(monkeypatch, inference, "credible_interval")
    relative_error_curve(rapid32, rapid32_matrix400, 100.0, 50, 3, seed=1, max_admissible_n=16)
    assert calls == []


def _mechanistic(system):
    detector = dataclasses.replace(system.detector, undershoot=MechanisticUndershoot(0.2))
    return dataclasses.replace(system, name=system.name + "-mechanistic", detector=detector)


def test_exact_stability_builds_one_matrix(monkeypatch, rapid32):
    calls = _count_calls(monkeypatch, inference, "build_matrix")
    assert stability_max_n(rapid32, 400) == 16
    assert len(calls) == 1
    # A history-dependent detector takes the same path: one exact build.
    calls.clear()
    mechanistic = _mechanistic(rapid32)
    assert stability_max_n(mechanistic, 30) == reference_stability(build_matrix(mechanistic, 60), 30, 0.01)[0]
    assert len(calls) == 1


@given(system=small_systems(), mu_max=st.integers(min_value=1, max_value=80), data=st.data())
@settings(max_examples=80, deadline=None)
def test_stability_matches_per_count_loop(system, mu_max, data):
    wide = build_matrix(system, 2 * mu_max)
    tvs = _stability_tv(wide.rows, mu_max)
    _, ref_tvs = reference_stability(wide, mu_max, 1.0)
    assert np.array_equal(tvs, ref_tvs, equal_nan=True)
    # One tolerance equals a TV the loop computes, so the ">=" edge is hit.
    attained = ref_tvs[np.isfinite(ref_tvs) & (ref_tvs > 0.0)]
    tolerances = [1e-4, 0.01, 0.1, 0.5]
    if attained.size:
        tolerances.append(float(data.draw(st.sampled_from(attained.tolist()), label="edge")))
    for tol in tolerances:
        assert stability_max_n(system, mu_max, tol) == reference_stability(wide, mu_max, tol)[0]


@pytest.mark.parametrize("mechanistic", [False, True], ids=["independent", "mechanistic"])
@given(mu_max=st.integers(min_value=1, max_value=25), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_mc_matrix_is_prefix_of_wider_build(rapid32, mechanistic, mu_max, seed):
    system = _mechanistic(rapid32) if mechanistic else rapid32
    narrow = build_matrix(system, mu_max, "mc", n_shots=300, seed=seed, workers=1)
    wide = build_matrix(system, 2 * mu_max, "mc", n_shots=300, seed=seed, workers=1)
    assert np.array_equal(narrow.rows, wide.rows[: mu_max + 1])
    assert narrow.provenance == wide.provenance[: mu_max + 1]


def test_exact_matrix_runs_one_poisson_binomial_pass(monkeypatch, rapid32):
    calls = _count_calls(monkeypatch, exact_oracle, "poisson_binomial_pmf")
    build_matrix(rapid32, 400)
    assert len(calls) == 1
    sparse = build_matrix(rapid32, 400, support=[10, 100])
    calls.clear()
    validate_interpolation(rapid32, sparse)
    assert len(calls) == 1


def _wide_rows(kind, n, rng):
    """A flat row, or a tie-heavy row of integer weights 0..3, and its weight total."""
    w = np.ones(n) if kind == "flat" else rng.integers(0, 4, n).astype(float)
    w[rng.integers(n)] += 1.0
    return w / w.sum(), int(w.sum())


@pytest.mark.parametrize("kind", ["flat", "ties"])
@pytest.mark.parametrize("n", [2000, 3999, 6000])
def test_running_mass_hpd_matches_scalar_loop_on_wide_rows(kind, n):
    # Rows this wide take dozens of passes of the largest window, so the
    # running mass adds up thousands of values. Every level below is a mass
    # the greedy loop attains (k / total, or an interval mass the loop
    # returned), so each stop decision sits on the 1e-12 fallback band.
    rng = np.random.default_rng(n + (kind == "ties"))
    p, total = _wide_rows(kind, n, rng)
    levels = [k / total for k in rng.integers(1, total, 4)]
    levels += [reference_hpd(p, lv)[2] for lv in (0.3, 0.9, 0.99)]
    for level in levels:
        lo, hi = _hpd_rows(p[None, :], level)
        assert (int(lo[0]), int(hi[0])) == reference_hpd(p, level)[:2]


def test_exp_floor_is_where_exp_is_exactly_zero():
    floor = inference._EXP_FLOOR
    at_or_below = np.array([-np.inf, -1e300, -1000.0, floor - 1e-9, np.nextafter(floor, -np.inf), floor])
    assert np.all(np.exp(at_or_below) == 0.0)
    # A sweep across the normal (> -708.4), denormal and underflow ranges,
    # exponentiated the way relative_error_curve does it.
    x = np.concatenate([np.linspace(-800.0, 0.0, 400_001), at_or_below])
    post = x.copy()
    keep = post > floor
    np.exp(post, out=post, where=keep)
    np.copyto(post, 0.0, where=~keep)
    expected = np.exp(x)
    assert np.array_equal(post, expected)
    assert ((expected > 0.0) & (expected < np.finfo(float).tiny)).any() and (expected == 0.0).any()


def test_relative_error_curve_is_unchanged_by_the_exp_floor(monkeypatch, rapid32, rapid32_matrix400):
    # With no floor, every finite log posterior goes through exp.
    args = (rapid32, rapid32_matrix400, 100.0, 200, 4)
    floored = relative_error_curve(*args, seed=5, max_admissible_n=16).rel_err
    monkeypatch.setattr(inference, "_EXP_FLOOR", -np.inf)
    assert np.array_equal(relative_error_curve(*args, seed=5, max_admissible_n=16).rel_err, floored)
