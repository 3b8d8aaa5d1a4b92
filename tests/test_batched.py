"""Array-at-once exact and inference layers against their row-by-row forms.

The references below are the row-by-row implementations the batched code
replaced, kept here so that every batched result can be compared with
them bit for bit.
"""

import dataclasses
import tracemalloc
from collections import Counter

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
from binflux._rng import derive_seed
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


def _record_lockstep(monkeypatch):
    """Record (growing rows in, rows handed on to the merge) for every _hpd_lockstep call."""
    runs = []
    original = inference._hpd_lockstep

    def recording(P, level, total, lo, hi, held, act):
        handed_on = original(P, level, total, lo, hi, held, act)
        runs.append((act.size, handed_on.size))
        return handed_on

    monkeypatch.setattr(inference, "_hpd_lockstep", recording)
    return runs


def _check_lockstep_rows(E, level, undivided):
    """_hpd_rows of the rows E / E.sum(axis=1) against reference_hpd, row by row.

    Undivided, E goes in with its totals and first argmaxes, as the curve
    hands its rows over. Equal rows of E give equal quotients, so the
    reference runs once per distinct row.
    """
    total = E.sum(axis=1, keepdims=True)
    Q = E / total
    if undivided:
        lo, hi = _hpd_rows(E, level, total, Q.argmax(axis=1))
    else:
        lo, hi = _hpd_rows(Q, level)
    refs = {}
    for i, q in enumerate(Q):
        ref = refs.setdefault(q.tobytes(), reference_hpd(q, level)[:2])
        assert (int(lo[i]), int(hi[i])) == ref, (i, level)


@st.composite
def lockstep_batches(draw):
    """At least _HPD_LOCKSTEP_ROWS rows: a few distinct rows, each repeated, shuffled and scaled, and a level.

    The distinct rows come from posterior_batches (tie-heavy, random or
    bumps, 1..60 values) or wide_posterior_batches (100..400 values, many
    still growing after _HPD_LOCKSTEP_STEPS steps). Half the levels are the
    exact mass of an interval the greedy loop returns for one of them, so
    that row's stop decision falls in the 1e-12 exact-sum band.
    """
    P, level = draw(st.one_of(posterior_batches(), wide_posterior_batches()))
    rows = inference._HPD_LOCKSTEP_ROWS
    reps = draw(st.lists(st.integers(1, 2 * rows), min_size=P.shape[0], max_size=P.shape[0]))
    order = np.repeat(np.arange(P.shape[0]), reps)
    order = np.concatenate([order, np.zeros(max(0, rows - order.size), dtype=int)])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(order)
    E = P[order] * draw(st.sampled_from([1.0, 0.75, 3.0, 1e3]))
    if draw(st.booleans()):
        q = P[draw(st.integers(0, P.shape[0] - 1))]
        mass = reference_hpd(q / q.sum(), level)[2]
        level = mass if mass < 1.0 else level
    return E, level, draw(st.booleans())


@given(lockstep_batches())
@settings(max_examples=200, deadline=None)
def test_lockstep_hpd_rows_match_scalar_greedy_loop(case):
    _check_lockstep_rows(*case)


def _tiled(rows, count):
    """count rows cycling through rows, so every distinct row recurs in the batch."""
    rows = np.asarray(rows, dtype=float)
    return rows[np.arange(count) % rows.shape[0]]


def test_lockstep_phase_on_crafted_rows(monkeypatch):
    # Every call below runs the lockstep phase and must give the greedy
    # loop's interval on every row. Each distinct row recurs often enough
    # that most of them stop inside the phase, not in the merge after it.
    runs = _record_lockstep(monkeypatch)
    rows = inference._HPD_LOCKSTEP_ROWS
    cases = []
    # Tie-heavy integer rows, divided and undivided, at levels the loop attains exactly.
    rng = np.random.default_rng(34)
    w = rng.integers(0, 4, (6, 40)).astype(float)
    w[np.arange(6), rng.integers(0, 40, 6)] += 1.0
    ties = _tiled(w, 6 * rows)
    q = ties[0] / ties[0].sum()
    for level in [reference_hpd(q, lv)[2] for lv in (0.2, 0.5, 0.9)] + [0.5]:
        cases += [(ties * 7.0, level, False), (ties * 7.0, level, True)]
    # Modes at either grid edge, where the other edge's cell outweighs the
    # first neighbour: the flat index past the edge is the next or previous row's.
    cases.append((_tiled([[5, 1, 1, 1, 4], [4, 1, 1, 1, 5]], 4 * rows), 0.6, True))
    # Grids of two values.
    cases += [(_tiled([[1, 3], [3, 1], [1, 1]], 6 * rows), level, True) for level in (0.6, 0.76, 0.99)]
    for E, level, undivided in cases:
        _check_lockstep_rows(E, level, undivided)
        assert len(runs) == 1 and runs.pop()[0] >= rows
    # No row grows on a grid of one value, nor past a mode that holds the level.
    _check_lockstep_rows(_tiled([[1.0], [2.0]], 2 * rows), 0.5, True)
    _check_lockstep_rows(_tiled([[1, 3], [3, 1]], 2 * rows), 0.75, True)
    assert runs == []
    # Wide flat rows are still growing after the last lockstep step: the merge finishes them.
    _check_lockstep_rows(_tiled(np.ones((1, 300)) + np.eye(1, 300, 120), rows), 0.9, True)
    assert runs == [(rows, rows)]


def test_fewer_growing_rows_than_the_lockstep_gate_take_the_merge_alone(monkeypatch, rapid32_matrix400):
    runs = _record_lockstep(monkeypatch)
    rows = inference._HPD_LOCKSTEP_ROWS
    post = posterior_single(rapid32_matrix400, 10)
    credible_interval(post, 0.9)
    P = np.array([posterior_single(rapid32_matrix400, n).probs for n in range(33)])
    _hpd_rows(_tiled(P, rows - 1), 0.9)
    # Rows whose mode alone holds the level do not count as growing.
    _hpd_rows(np.concatenate([_tiled(P, rows - 1), _tiled(np.eye(1, P.shape[1], 7), 50)]), 0.9)
    assert runs == []
    _hpd_rows(_tiled(P, rows), 0.9)
    assert len(runs) == 1 and runs[0][0] == rows


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


def test_exp_floor_keeps_normal_doubles_and_drops_cells_700_below_the_peak():
    floor = inference._EXP_FLOOR
    # Log posteriors are taken relative to their row's peak, so a dropped
    # cell lies at least 700 below it.
    assert floor <= -700.0
    # A sweep across the normal (> -708.4), subnormal and underflow ranges,
    # exponentiated the way relative_error_curve does it. A row sum is at
    # most the grid size, so on a 4430-value grid a kept cell normalises to
    # at least its exp / 4430.
    x = np.concatenate([np.linspace(-800.0, 0.0, 400_001), [np.nextafter(floor, 0.0), floor]])
    post = x.copy()
    keep = post > floor
    np.exp(post, out=post, where=keep)
    np.maximum(post, 0.0, out=post)
    tiny = np.finfo(float).tiny
    assert post[keep].min() >= tiny and (post[keep] / 4430.0).min() >= tiny
    assert np.all(post[~keep] == 0.0)
    assert ((np.exp(x) > 0.0) & (np.exp(x) < tiny)).any()


def reference_normalise(logp):
    """The normalised rows of logp and their log normalisers, dropped cells zeroed through a mask."""
    logp = logp.copy()
    top = logp.max(axis=-1, keepdims=True)
    logp -= top
    keep = logp > inference._EXP_FLOOR
    np.exp(logp, out=logp, where=keep)
    np.copyto(logp, 0.0, where=~keep)
    total = logp.sum(axis=-1, keepdims=True)
    logp /= total
    return logp, top + np.log(total)


@st.composite
def log_posterior_rows(draw):
    """1-D or 2-D log posteriors whose rows peak at 0 and hold -inf and cells at and below the exp floor."""
    floor = inference._EXP_FLOOR
    special = [-np.inf, floor, np.nextafter(floor, -np.inf), np.nextafter(floor, 0.0), -745.5, -0.0, 0.0]
    cells = st.one_of(st.sampled_from(special), st.floats(-1000.0, 0.0))
    shape = draw(st.sampled_from([(), (1,), (4,)])) + (draw(st.integers(1, 40)),)
    logp = draw(npst.arrays(np.float64, shape, elements=cells))
    rows = logp.reshape(-1, shape[-1])
    rows[np.arange(rows.shape[0]), draw(st.integers(0, shape[-1] - 1))] = 0.0
    return logp


@given(log_posterior_rows())
@settings(max_examples=300, deadline=None)
def test_normalise_zeroes_dropped_cells_as_the_masked_copy_did(logp):
    want, want_norm = reference_normalise(logp)
    got = logp.copy()
    got_norm = inference._normalise(got)
    # Byte equality: a dropped cell must be +0.0, not -0.0.
    assert got.tobytes() == want.tobytes()
    assert got_norm.tobytes() == want_norm.tobytes()
    assert not np.signbit(got).any()


@given(
    logp=log_posterior_rows(),
    peak=st.sampled_from([0.0, -0.5, -1.0, -3.0, np.nextafter(-8.0, 0.0), -8.0, -8.5, -30.0, -1e3, -1e5]),
    ulp_cells=st.lists(st.integers(0, 39), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_hpd_rows_on_undivided_rows_match_the_divided_rows(logp, peak, ulp_cells):
    # Rows peaking at, above and below -8, with cells one ulp below the peak,
    # where exp and the divide can round a cell to the peak's own quotient.
    rows = logp.reshape(-1, logp.shape[-1]) + peak
    rows[:, [c for c in ulp_cells if c < rows.shape[1]]] = np.nextafter(peak, -np.inf)
    E = rows.copy()
    top, total, mode = inference._exp_rows(E)
    mode = inference._curve_mode(E, top, total, mode)
    P = E / total
    assert np.array_equal(mode, P.argmax(axis=1))
    for level in (0.5, 0.9, 0.99):
        got, want = _hpd_rows(E, level, total, mode), _hpd_rows(P, level)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), level


def test_curve_mode_takes_the_divided_rows_first_argmax_near_the_top():
    # Cells 0 and 1 differ by one ulp in log, and so after exp, but divide
    # to the same quotient: P's first argmax is 0, logp's is 1.
    logp = np.array([[np.nextafter(-0.5, -1.0), -0.5, -3.0]])
    E = logp.copy()
    top, total, mode = inference._exp_rows(E)
    assert int(mode[0]) == 1 and E[0, 0] < E[0, 1]
    P = E / total
    assert P[0, 0] == P[0, 1] == pytest.approx(0.48028779)
    assert int(inference._curve_mode(E, top, total, mode)[0]) == 0
    assert [int(x[0]) for x in _hpd_rows(E, 0.1, total, mode)] == [0, 0]


def test_hpd_rows_sums_divided_cells_near_the_level():
    # Two of four equal cells hold 0.5, 5e-13 short of the level: only the
    # exact sum of the divided slice keeps the row growing to a third cell.
    E, total, level = np.ones((1, 4)), np.array([[4.0]]), 0.5 + 5e-13
    got = _hpd_rows(E, level, total, np.array([0]))
    assert [int(x[0]) for x in got] == [int(x[0]) for x in _hpd_rows(E / total, level)] == [0, 2]


def _curve_posteriors(log_cols, counts, floor):
    """The normalised posteriors after 1, 2, ... shots and their row sums, built as relative_error_curve does."""
    post = log_cols[counts]
    np.cumsum(post, axis=0, out=post)
    post -= post.max(axis=1, keepdims=True)
    keep = post > floor
    np.exp(post, out=post, where=keep)
    np.copyto(post, 0.0, where=~keep)
    total = post.sum(axis=1, keepdims=True)
    return post / total, total


@pytest.fixture(scope="module")
def curve_likelihoods(rapid32, conventional16, mechanistic32):
    """Per system: log columns of the exact [0, 400] matrix, its rows and the stability cutoff."""
    cases = {}
    for system in (rapid32, conventional16, mechanistic32):
        matrix, cutoff = inference._stability_build(system, 400, 0.01)
        with np.errstate(divide="ignore"):
            cases[system.name] = (np.ascontiguousarray(np.log(matrix.rows).T), matrix.rows, cutoff)
    return cases


@given(
    name=st.sampled_from(["rapid32", "conventional16", "rapid32-mechanistic"]),
    mu=st.integers(1, 400),
    shots=st.integers(1, 400),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_exp_floor_leaves_row_sums_and_intervals_of_real_posteriors_unchanged(
    curve_likelihoods, name, mu, shots, uniform, seed
):
    log_cols, rows, cutoff = curve_likelihoods[name]
    # Counts up to the cutoff, as the curve keeps them: drawn from the exact
    # law at mu, or uniformly, which gives far more lopsided posteriors.
    law = None if uniform else rows[mu, : cutoff + 1] / rows[mu, : cutoff + 1].sum()
    counts = np.random.default_rng(seed).choice(cutoff + 1, size=shots, p=law)
    floored, total = _curve_posteriors(log_cols, counts, inference._EXP_FLOOR)
    unfloored, unfloored_total = _curve_posteriors(log_cols, counts, -np.inf)
    assert np.array_equal(total, unfloored_total)
    for level in (0.5, 0.9, 0.99):
        for a, b in zip(_hpd_rows(floored, level), _hpd_rows(unfloored, level)):
            assert np.array_equal(a, b)
    # Every kept cell is a normal double, and every dropped one lay at
    # least 700 below its row's peak.
    assert not ((floored > 0.0) & (floored < np.finfo(float).tiny)).any()
    log_post = np.cumsum(log_cols[counts], axis=0)
    log_post -= log_post.max(axis=1, keepdims=True)
    dropped = (floored == 0.0) & np.isfinite(log_post)
    assert np.all(log_post[dropped] <= -700.0)


def _capture_posteriors(monkeypatch):
    """Record the rows every interval of relative_error_curve is taken on: each _hpd_rows call's cells over their totals.

    The curve hands _hpd_rows its rows after exp, undivided, with their
    totals and modes; the rows divided here are the ones a full divide
    would have stored, and each handed mode must be their first argmax.
    """
    seen = []
    original = inference._hpd_rows

    def capturing(P, level, total=None, mode=None):
        divided = P / (1.0 if total is None else total)
        assert mode is None or np.array_equal(mode, divided.argmax(axis=1))
        seen.append(divided)
        return original(P, level, total, mode)

    monkeypatch.setattr(inference, "_hpd_rows", capturing)
    return seen


def test_relative_error_curve_is_unchanged_by_the_exp_floor(monkeypatch, rapid32, conventional16, mechanistic32):
    # With no floor, every finite log posterior goes through exp. The last
    # case puts mu near the grid edge, where the posterior's upper tail is cut.
    seen = _capture_posteriors(monkeypatch)
    floor = inference._EXP_FLOOR
    for system, mu in ((rapid32, 100.0), (conventional16, 100.0), (mechanistic32, 100.0), (rapid32, 300.0)):
        matrix, cutoff = inference._stability_build(system, 400, 0.01)
        curves, rows = [], []
        for f in (floor, -np.inf):
            monkeypatch.setattr(inference, "_EXP_FLOOR", f)
            seen.clear()
            curves.append(relative_error_curve(system, matrix, mu, 200, 4, seed=5, max_admissible_n=cutoff).rel_err)
            rows.append(np.concatenate(seen))
        assert np.array_equal(curves[0], curves[1]), (system.name, mu)
        # Every (trial, shot) row is handed over in both runs, in the same
        # blocks. The floor does drop cells that exp keeps as nonzero: the
        # posteriors differ, the widths do not.
        assert rows[0].shape == rows[1].shape == (4 * 200, 401), (system.name, mu)
        assert not np.array_equal(rows[0], rows[1]), (system.name, mu)


def test_relative_error_curve_hands_hpd_no_subnormal_cell(monkeypatch, rapid32, rapid32_matrix400):
    seen = _capture_posteriors(monkeypatch)
    relative_error_curve(rapid32, rapid32_matrix400, 100.0, 400, 3, seed=1, max_admissible_n=16)
    # However the rows are blocked, all 3 x 400 (trial, shot) rows are seen.
    rows = np.concatenate(seen)
    assert rows.shape == (3 * 400, 401)
    assert not ((rows > 0.0) & (rows < np.finfo(float).tiny)).any()


def _reference_counts(system, mu, max_shots, seed, t, cutoff):
    """Trial t's counts by inversion in floats: how many truncated CDF values lie at or below each shot's uniform.

    Shot i's uniform is (w >> 11) * 2^-53, w the i-th word of the stream of
    derive_seed(seed, t); the CDF is the exact law's up to the cutoff,
    renormalised.
    """
    cdf = np.cumsum(exact_oracle.coherent_click_rows([mu], system.bin_weights(), system.detector)[0][: cutoff + 1])
    cdf /= cdf[-1]
    words = np.random.PCG64DXSM(np.random.SeedSequence([derive_seed(seed, t)])).random_raw(max_shots)
    u = (words >> 11) * 2.0**-53
    return (cdf[None, :] <= u[:, None]).sum(axis=1)


@pytest.mark.parametrize(
    "name, mu",
    [("rapid32", 100.0), ("conventional16", 100.0), ("rapid32-mechanistic", 100.0), ("rapid32", 300.0)],
)
def test_relative_error_curve_posteriors_are_the_cumsum_build_byte_for_byte(
    monkeypatch, rapid32, conventional16, mechanistic32, name, mu
):
    # mu 300 on [0, 400] puts 93 % of the law above the cutoff. Each trial's
    # counts are drawn by _reference_counts. The rows handed to _hpd_rows, in
    # whatever blocks, must be every trial's reference rows byte for byte:
    # the same multiset of row bytes.
    system = {s.name: s for s in (rapid32, conventional16, mechanistic32)}[name]
    matrix, cutoff = inference._stability_build(system, 400, 0.01)
    seen = _capture_posteriors(monkeypatch)
    max_shots, n_trials = 300, 4
    relative_error_curve(system, matrix, mu, max_shots, n_trials, seed=11, max_admissible_n=cutoff)
    with np.errstate(divide="ignore"):
        log_cols = np.ascontiguousarray(np.log(matrix.rows).T)
    want = Counter()
    for t in range(n_trials):
        counts = _reference_counts(system, mu, max_shots, 11, t, cutoff)
        want.update(row.tobytes() for row in _curve_posteriors(log_cols, counts, inference._EXP_FLOOR)[0])
    rows = np.concatenate(seen)
    assert rows.shape == (n_trials * max_shots, log_cols.shape[1])
    got = Counter(row.tobytes() for row in rows)
    differ = (got - want) + (want - got)
    assert not differ, f"{sum(differ.values())} posterior rows differ from the reference ({name}, mu {mu})"


def _reference_curve(system, matrix, mu, max_shots, n_trials, seed, cutoff):
    """rel_err one trial at a time: counts drawn by _reference_counts, posteriors by cumsum."""
    with np.errstate(divide="ignore"):
        log_cols = np.ascontiguousarray(np.log(matrix.rows).T)
    rel_err = np.empty((n_trials, max_shots))
    for t in range(n_trials):
        counts = _reference_counts(system, mu, max_shots, seed, t, cutoff)
        lo, hi = _hpd_rows(_curve_posteriors(log_cols, counts, inference._EXP_FLOOR)[0], 0.90)
        rel_err[t] = (hi - lo + 1) / mu
    return rel_err


@pytest.mark.parametrize(
    "name, mu, n_trials, max_shots, cutoff",
    [
        ("rapid32", 100.0, 7, 201, "stable"),
        ("rapid32", 100.0, 3, 250, "stable"),
        ("rapid32", 100.0, 250, 3, "stable"),
        ("rapid32", 100.0, 1, 450, "stable"),
        ("rapid32", 100.0, 5, 1, "stable"),
        ("rapid32", 100.0, 201, 210, "stable"),
        ("rapid32", 300.0, 4, 300, "stable"),
        ("conventional16", 100.0, 6, 120, "stable"),
        ("rapid32-mechanistic", 100.0, 6, 120, "stable"),
        ("rapid32", 100.0, 5, 90, None),
    ],
)
def test_relative_error_curve_matches_a_per_trial_loop_byte_for_byte(
    rapid32, conventional16, mechanistic32, name, mu, n_trials, max_shots, cutoff
):
    # Shapes across block edges: a shot count that is no multiple of a
    # block's depth, more trials than shots or than a block's rows, one
    # trial, one shot, a mu near the grid edge whose law lies mostly above
    # the cutoff, and no cutoff.
    system = {s.name: s for s in (rapid32, conventional16, mechanistic32)}[name]
    matrix, stable = inference._stability_build(system, 400, 0.01)
    cutoff = stable if cutoff == "stable" else None
    curve = relative_error_curve(system, matrix, mu, max_shots, n_trials, seed=17, max_admissible_n=cutoff)
    want = _reference_curve(system, matrix, mu, max_shots, n_trials, 17, matrix.num_bins if cutoff is None else cutoff)
    assert curve.rel_err.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_trials, max_shots", [(100, 400), (2000, 20)])
def test_relative_error_curve_memory_does_not_grow_with_the_trials(rapid32, rapid32_matrix400, n_trials, max_shots):
    # Beside rel_err, the curve may hold some posterior arrays of max_shots
    # rows. A block of one row per trial would take 6.4 MB at 2000 trials,
    # 100 such units, where 2000 x 20 measured 6.7 and 100 x 400 measured 2.5.
    unit = max_shots * (rapid32_matrix400.mu_max + 1) * 8
    tracemalloc.start()
    try:
        curve = relative_error_curve(rapid32, rapid32_matrix400, 100.0, max_shots, n_trials, seed=1, max_admissible_n=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= curve.rel_err.nbytes + 10 * unit
