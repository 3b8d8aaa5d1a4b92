"""Bayesian pulse-energy estimation from click counts.

The response matrix plays the role of the likelihood: column n holds
P(n clicks | mu) on the integer mu grid. With a flat prior over that grid
the posterior after one shot is just the renormalized column; repeated
shots multiply columns, so their click histogram is all posterior_multi needs.

Interval convention: credible intervals live on the integer mu grid and
their width counts the number of grid values covered, hi - lo + 1. A
single-value interval has width 1, and the photon-equivalent energy of an
interval is width times the single-photon energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import derive_seed, lane_threshold, seed_sequence, uniform_lanes
from .config import SystemConfig
from .errors import _DIMENSION, DegenerateEvidenceError, ModelUnsupportedError, _integer, _real
from .exact_oracle import coherent_click_rows
from .response_matrix import ResponseMatrix, build_matrix

PLANCK_CONSTANT = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m / s


@dataclass
class Posterior:
    """Posterior over integer mu under a flat prior.

    log_evidence is the log marginal likelihood of the data under that
    prior, useful for comparing candidate system models.
    """

    probs: np.ndarray
    log_evidence: float

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)

    @property
    def mode(self) -> int:
        # argmax breaks ties toward the smaller mu.
        return int(np.argmax(self.probs))

    @property
    def mean(self) -> float:
        return float(self.probs @ np.arange(self.probs.size))


@dataclass(frozen=True)
class CredibleInterval:
    """Highest-density contiguous interval on the integer mu grid."""

    level: float
    lo: int
    hi: int
    mass: float

    @property
    def width(self) -> int:
        """Number of mu values covered (a point interval has width 1)."""
        return self.hi - self.lo + 1


_EXP_FLOOR = -700.0


def _exp_rows(logp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentiate each row of the log posteriors logp in place, relative to its peak.

    Returns each row's peak log value top, its sum after exp total (the
    rows divided by total are the posteriors P) and its first argmax mode.
    Cells _EXP_FLOOR or more below their row's peak are set to 0 without
    calling exp. Every kept cell is then a normal double, > 9.9e-305, and
    stays one divided by its row sum (at most the grid size) on grids of
    up to 4430 values, so no arithmetic runs on slow subnormals. Dropped
    cells lie below e^-700 of the peak cell, which is 1; in every case
    tested they change neither a row sum nor an interval (verified, not
    proven for every row).
    """
    mode = logp.argmax(axis=-1)
    top = np.take_along_axis(logp, mode[..., None], axis=-1)
    if not np.isfinite(top).all():
        raise DegenerateEvidenceError("the observed sequence has zero probability for every mu on the grid")
    logp -= top
    np.exp(logp, out=logp, where=logp > _EXP_FLOOR)
    # Kept cells are now > 0; dropped ones still hold a log <= _EXP_FLOOR, or -inf.
    np.maximum(logp, 0.0, out=logp)
    return top, logp.sum(axis=-1, keepdims=True), mode


def _normalise(logp: np.ndarray) -> np.ndarray:
    """Normalise each row of the log posteriors logp in place (_exp_rows, then divide); return their log normalisers."""
    top, total, _ = _exp_rows(logp)
    logp /= total
    return top + np.log(total)


def _curve_mode(E: np.ndarray, top: np.ndarray, total: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """First argmax of every row of P = E / total, given _exp_rows' results for E; mode is updated in place.

    Where top <= -8 every cell below the peak lies at least 2^-49 (an ulp
    at 8) below it, so its exp is < 1 and its quotient < 1 / total: logp's
    first argmax is P's. Rows above (first shots, in the curve) take P's own.
    """
    near = np.flatnonzero(top[:, 0] > -8.0)
    mode[near] = (E[near] / total[near]).argmax(axis=1)
    return mode


def _click_counts(observations, hi: int) -> np.ndarray:
    """The counts as int64, checked by one type pass and one range comparison; _integer names a bad one."""
    items = observations if isinstance(observations, (np.ndarray, list, tuple)) else list(observations)
    types = {items.dtype.type} if isinstance(items, np.ndarray) else set(map(type, items))
    if all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        obs = np.asarray(items)
        # Signed and unsigned mixed, or an int past 64 bits, make no integer dtype.
        if obs.ndim == 1 and obs.dtype.kind in "iu" and obs.size and obs.min() >= 0 and obs.max() <= hi:
            return obs.astype(np.int64, copy=False)
    return np.fromiter((_integer(n, "click count", 0, hi) for n in items), dtype=np.int64)


def posterior_single(matrix: ResponseMatrix, n: int) -> Posterior:
    """Posterior after observing a single shot with n clicks: posterior_multi's one-shot case."""
    return posterior_multi(matrix, [n])


def posterior_multi(
    matrix: ResponseMatrix,
    observations: Sequence[int],
    max_admissible_n: int | None = None,
) -> Posterior:
    """Posterior after a sequence of independent shots.

    One shot gives the renormalised column. More multiply their columns, so
    the click histogram h is a sufficient statistic: the log posterior sums
    h[n] * log P(n | mu) over the counts seen, in O(mu_max * B) memory
    whatever the shot count and independent of observation order. When
    max_admissible_n is given, any larger click count is rejected up front
    with ModelUnsupportedError: such counts carry posterior mass beyond the
    mu grid and their columns are not trustworthy (see stability_max_n).
    It is an integer >= -1: -1, what stability_max_n returns when no count
    is stable, admits none.
    """
    if max_admissible_n is not None:
        max_admissible_n = _integer(max_admissible_n, "max_admissible_n", -1)
    obs = _click_counts(observations, matrix.num_bins)
    if obs.size == 0:
        raise ValueError("observations must contain at least one click count")
    worst = int(obs.max())
    if max_admissible_n is not None and worst > max_admissible_n:
        raise ModelUnsupportedError(
            f"click count {worst} exceeds the stability cutoff {max_admissible_n} for mu_max="
            f"{matrix.mu_max}: its posterior would change materially on a larger mu grid, "
            "so this count should be discarded rather than inverted"
        )
    if obs.size == 1:
        col = matrix.rows[:, worst]
        total = col.sum()
        if total == 0.0:
            raise DegenerateEvidenceError(f"{worst} clicks has zero probability for every mu in the matrix")
        return Posterior(probs=col / total, log_evidence=math.log(total) - math.log(col.size))
    h = np.bincount(obs)
    used = np.flatnonzero(h)
    # Elementwise, not a matrix product, so no BLAS build can change the bytes.
    with np.errstate(divide="ignore"):
        post = (np.log(matrix.rows[:, used]) * h[used]).sum(axis=1)
    log_norm = _normalise(post)
    return Posterior(probs=post, log_evidence=float(log_norm[0]) - math.log(post.size))


# Greedy steps _hpd_rows takes per pass: the first pass looks this far
# ahead, each later one twice as far, up to the cap, which keeps a pass's
# temporaries at a few (rows, cap) arrays whatever the row width.
_HPD_FIRST_WINDOW = 8
_HPD_MAX_WINDOW = 64
# While at least this many rows of an _hpd_rows call grow, and for at most
# this many steps, one numpy step moves each of them one greedy step.
_HPD_LOCKSTEP_ROWS = 128
_HPD_LOCKSTEP_STEPS = 64
_CURVE_BLOCK_ROWS = 400  # posterior rows relative_error_curve exponentiates and hands _hpd_rows at once
_CURVE_MIN_ADMISSIBLE = 2.0**-10  # least P(N <= cutoff | mu_true) relative_error_curve draws from


def _hpd_lockstep(P, level, total, lo, hi, held, act) -> np.ndarray:
    """Grow the rows act of _hpd_rows one greedy step per numpy step; return those still growing.

    Each step reads every growing row's two neighbouring cells, divides them
    by the row's total, takes the larger (ties left; a side off the grid
    reads -1) and adds it to the row's running mass. That is the greedy loop
    itself, with the merge's running-mass rule: a state within 1e-12 of
    level is summed exactly over its slice. Rows that stop leave lo and hi;
    rows still growing when fewer than _HPD_LOCKSTEP_ROWS are left, or after
    _HPD_LOCKSTEP_STEPS steps, leave lo, hi and held for the merge.
    """
    n = P.shape[1]
    flat = P.reshape(-1)
    base = act * n
    end = base + n
    # Flat indices of each row's next cell on either side of its interval.
    left, right = base + lo[act] - 1, base + hi[act] + 1
    mass, tot = held[act], total[act, 0]
    for _ in range(_HPD_LOCKSTEP_STEPS):
        # An index off the grid may leave P; "clip" keeps it in range, and the cell is masked.
        a = flat.take(left, mode="clip") / tot
        b = flat.take(right, mode="clip") / tot
        np.copyto(a, -1.0, where=left < base)
        np.copyto(b, -1.0, where=right >= end)
        go_left = a >= b
        left -= go_left
        right += ~go_left
        mass += np.maximum(a, b)
        for i in np.flatnonzero(np.abs(mass - level) <= 1e-12):
            mass[i] = (P[act[i], left[i] - base[i] + 1 : right[i] - base[i]] / tot[i]).sum()
        done = (mass >= level) | (right - left > n)
        if done.any():
            lo[act[done]] = left[done] - base[done] + 1
            hi[act[done]] = right[done] - base[done] - 1
            keep = ~done
            act, base, end, left, right, mass, tot = (x[keep] for x in (act, base, end, left, right, mass, tot))
            if act.size < _HPD_LOCKSTEP_ROWS:
                break
    lo[act], hi[act], held[act] = left - base + 1, right - base - 1, mass
    return act


def _hpd_rows(P: np.ndarray, level: float, total=None, mode=None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy highest-density interval [lo, hi] of every row of P / total at once.

    With total (a column; 1 if omitted) and mode, the rows' first argmax,
    relative_error_curve's block is never divided in full: only the cells
    read are, each to the quotient a full divide stores, so every interval
    is unchanged. Below, P means the divided rows.

    Each row grows from its mode, adding the more probable neighbor at each
    step (ties extend toward smaller mu) until its mass reaches level.

    While at least _HPD_LOCKSTEP_ROWS rows grow, _hpd_lockstep steps them all
    at once, as a numpy step costs about the same for any row count. The merge
    below finishes the rest, and takes calls with fewer rows from the start.

    A pass of the merge moves every row up to S steps at once. That greedy
    order is a stable merge: with L'_i = min(P[lo - 1], ..., P[lo - i])
    the running minimum of the next i values on the left and R'_j the same
    on the right, left value i is taken at step i + #{j : R'_j > L'_i}: the
    smallest left value up to i waits at the head of its side until every
    right value above it has been taken, and the smallest right value up
    to j waits for every left value at or above it (ties go left). So a
    stable descending sort of both sides' running minima, left side first,
    lists the steps in the loop's order, and its first S steps need only
    the next S values on each side. A side that runs off the grid reads -1
    in the merge, so it is never chosen, and 0 in the mass.

    Mass is a running sum, so no pass reads past its window: a state's mass
    is its row's held mass plus the cumulative sums of the values it takes
    on each side. That differs from P[i, lo:hi + 1].sum() by about
    width * eps, far below 1e-12 on any grid this package builds, and a
    state within 1e-12 of level is summed exactly over its slice instead,
    so each stop decision is the one a row-by-row loop summing the slice
    makes. A row stops at its first state that reaches level or covers the
    whole grid.
    """
    k, n = P.shape
    total = np.ones((k, 1)) if total is None else total
    lo = P.argmax(axis=1) if mode is None else mode.copy()
    hi = lo.copy()
    held = P[np.arange(k), lo] / total[:, 0]
    act = np.flatnonzero((held < level) & (n > 1))
    if act.size >= _HPD_LOCKSTEP_ROWS:
        act = _hpd_lockstep(P, level, total, lo, hi, held, act)
    window = _HPD_FIRST_WINDOW
    while act.size:
        s = min(window, n - 1)
        window = min(2 * window, _HPD_MAX_WINDOW)
        rows = act[:, None]
        a, b = lo[act], hi[act]
        steps = np.arange(1, s + 1)
        left = a[:, None] - steps
        right = b[:, None] + steps
        off = np.concatenate([left < 0, right >= n], axis=1)
        cand = np.empty((act.size, 2 * s))
        head, tail = cand[:, :s], cand[:, s:]
        head[...] = P[rows, np.maximum(left, 0)]
        tail[...] = P[rows, np.minimum(right, n - 1)]
        cand /= total[act]
        np.copyto(cand, 0.0, where=off)
        # sums[i, 0, j] and sums[i, 1, j] hold the mass of the next j values on each side.
        sums = np.zeros((act.size, 2, s + 1))
        np.cumsum(cand.reshape(-1, 2, s), axis=2, out=sums[:, :, 1:])
        np.copyto(cand, -1.0, where=off)
        np.minimum.accumulate(head, axis=1, out=head)
        np.minimum.accumulate(tail, axis=1, out=tail)
        np.negative(cand, out=cand)
        # Columns 0..s-1 are the left side, so the stable sort breaks ties left.
        took_left = np.cumsum(np.argsort(cand, axis=1, kind="stable")[:, :s] < s, axis=1)
        # Steps past the last grid value would take a -1; clipping holds
        # them at the whole grid, where the row stops anyway.
        new_lo = np.maximum(a[:, None] - took_left, 0)
        new_hi = np.minimum(b[:, None] + steps - took_left, n - 1)
        pick = np.arange(act.size)
        mass = held[rows] + sums[pick[:, None], 0, took_left] + sums[pick[:, None], 1, steps - took_left]
        for i, t in zip(*np.nonzero(np.abs(mass - level) <= 1e-12)):
            mass[i, t] = (P[act[i], new_lo[i, t] : new_hi[i, t] + 1] / total[act[i], 0]).sum()
        done = (mass >= level) | ((new_lo == 0) & (new_hi == n - 1))
        stopped = done.any(axis=1)
        last = np.where(stopped, done.argmax(axis=1), s - 1)
        lo[act], hi[act], held[act] = new_lo[pick, last], new_hi[pick, last], mass[pick, last]
        act = act[~stopped]
    return lo, hi


def credible_interval(posterior: Posterior, level: float = 0.90) -> CredibleInterval:
    """Smallest contiguous interval around the mode holding >= level mass.

    Grows greedily from the mode, at each step adding the more probable
    neighbor; ties extend toward smaller mu. This is the one-row case of
    _hpd_rows, which relative_error_curve uses too: its merge takes up to 64
    steps per numpy pass. mass is the sum of the posterior over [lo, hi].
    """
    level = _real(level, "level", 0.0, 1.0)
    p = posterior.probs
    lo, hi = (int(x[0]) for x in _hpd_rows(p[None, :], level))
    return CredibleInterval(level=level, lo=lo, hi=hi, mass=float(p[lo : hi + 1].sum()))


def interval_to_energy(width_photons: float, wavelength: float = 1.55e-6) -> float:
    """Photon-count uncertainty expressed as pulse energy in joules."""
    width_photons = _real(width_photons, "width_photons", 0.0, brackets="[)")
    return width_photons * PLANCK_CONSTANT * SPEED_OF_LIGHT / _real(wavelength, "wavelength", 0.0)


def _stability_tv(wide_rows: np.ndarray, mu_max: int) -> np.ndarray:
    """TV distance, per click count, of the [0, mu_max] posterior from the whole-grid one.

    wide_rows is a (mu, n) matrix on a grid that extends past mu_max. One
    pass over its columns: each is normalised, the normalised head
    [0, mu_max] is subtracted in place, and half the absolute sum is the
    distance. These are the sums a per-count loop makes, so the result is
    bit-equal to it. A count impossible on [0, mu_max] gives NaN.
    """
    cols = np.ascontiguousarray(wide_rows.T)
    head = cols[:, : mu_max + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = cols / cols.sum(axis=1, keepdims=True)
        diff[:, : mu_max + 1] -= head / head.sum(axis=1, keepdims=True)
    np.abs(diff, out=diff)
    return 0.5 * diff.sum(axis=1)


def stability_max_n(system: SystemConfig, mu_max: int, tolerance: float = 0.01) -> int:
    """Largest click count whose posterior is insensitive to the grid bound.

    For each n the posterior on [0, mu_max] is compared with the one on
    [0, 2 * mu_max] (_stability_build). Because the former is the
    renormalised head of the latter, their total-variation distance equals
    the wide posterior's mass above mu_max. Counts up to the returned value
    all have a distance below tolerance; a count impossible on [0, mu_max]
    counts as unstable. Counts above it should be discarded rather than
    inverted.
    """
    return _stability_build(system, mu_max, tolerance)[1]


def _stability_build(system: SystemConfig, mu_max: int, tolerance: float) -> tuple[ResponseMatrix, int]:
    """The exact [0, mu_max] matrix and the stability cutoff, from one build on [0, 2 * mu_max].

    The [0, mu_max] matrix is the wide build's first mu_max + 1 rows, so a
    caller that also inverts with it needs no second build.
    """
    tolerance = _real(tolerance, "tolerance", 0.0)
    mu_max = _integer(mu_max, "mu_max", 1, (_DIMENSION - 1) // 2)
    wide = build_matrix(system, 2 * mu_max)
    unstable = np.flatnonzero(~(_stability_tv(wide.rows, mu_max) < tolerance))
    cutoff = int(unstable[0]) - 1 if unstable.size else wide.num_bins
    head = slice(0, mu_max + 1)
    return ResponseMatrix(wide.system, wide.rows[head], wide.provenance[head], wide.method), cutoff


@dataclass
class RelativeErrorCurve:
    """Credible-interval width against accumulated shots, over repeated trials.

    rel_err[t, k - 1] is the credible-interval width divided by the true
    mu after k shots in trial t.
    """

    rel_err: np.ndarray

    def __post_init__(self) -> None:
        self.rel_err.setflags(write=False)

    def median(self) -> np.ndarray:
        return np.median(self.rel_err, axis=0)

    def quantile(self, q: float) -> np.ndarray:
        return np.quantile(self.rel_err, q, axis=0)

    def shots_to(self, threshold: float) -> float:
        """Median over trials of the first shot count reaching the threshold."""
        reached = self.rel_err <= threshold
        first = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, np.inf)
        return float(np.median(first))


def _curve_counts(system, mu_true: float, cutoff: int, max_shots: int, n_trials: int, seed: int) -> np.ndarray:
    """Every trial's click counts, (n_trials, max_shots), from system's law at mu_true truncated at cutoff.

    A lane's count is the number of the truncated CDF's 53-bit thresholds
    (_rng.lane_threshold) at or below it: the smallest n whose CDF value
    exceeds the lane's uniform, to within 2^-53 per count. Trial t reads
    words 0 to max_shots - 1 of the stream of derive_seed(seed, t). A law
    with less than _CURVE_MIN_ADMISSIBLE of mass up to the cutoff raises
    DegenerateEvidenceError.
    """
    law = coherent_click_rows([mu_true], system.bin_weights(), system.detector)[0]
    cdf = np.cumsum(law[: cutoff + 1])
    if cdf.size == 0 or cdf[-1] < _CURVE_MIN_ADMISSIBLE:
        raise DegenerateEvidenceError(
            f"stability cutoff {cutoff} rejects nearly every shot at mu={mu_true}; "
            "the mu grid is too small for this source"
        )
    thresholds = lane_threshold(cdf / cdf[-1])
    counts = np.empty((n_trials, max_shots), dtype=np.uint8 if cdf.size <= 256 else np.intp)
    for t, trial in enumerate(counts):
        lanes = uniform_lanes(seed_sequence(derive_seed(seed, t)), 0, max_shots, 1)[:, 0]
        trial[:] = np.searchsorted(thresholds, lanes >> 11, side="right")
    return counts


def relative_error_curve(
    system: SystemConfig,
    matrix: ResponseMatrix,
    mu_true: float,
    max_shots: int,
    n_trials: int,
    seed: int,
    *,
    level: float = 0.90,
    max_admissible_n: int | None = None,
    workers: int | None = None,
) -> RelativeErrorCurve:
    """Simulate repeated measurement runs and track interval convergence.

    Trial t's counts are inverse-CDF draws (_curve_counts) from system's
    exact law, whatever matrix with its bin count is passed, truncated at
    the stability cutoff and renormalised: the counts that discarding each
    count above it and drawing again would keep. workers is checked as
    build_matrix checks it; the draws need no threads.

    Then the log posteriors of a group of trials are summed in lockstep,
    each the previous one plus its count's column: a cumulative sum's
    additions, in its order. _exp_rows (posterior_multi's too, through
    _normalise) and credible_interval's greedy rule take blocks of those
    rows at once. A block is never divided in full: _hpd_rows divides only
    the cells it reads, and _curve_mode finds each row's mode.
    """
    mu_true = _real(mu_true, "mu_true", 0.0)
    max_shots = _integer(max_shots, "max_shots", 1)
    n_trials = _integer(n_trials, "n_trials", 1)
    level = _real(level, "level", 0.0, 1.0)
    if workers is not None:
        _integer(workers, "workers", 1)
    if matrix.num_bins != system.num_bins:
        raise ValueError(f"matrix: has {matrix.num_bins} bins, but system draws counts over {system.num_bins}")
    cutoff = matrix.num_bins if max_admissible_n is None else _integer(max_admissible_n, "max_admissible_n", -1)
    with np.errstate(divide="ignore"):
        log_cols = np.ascontiguousarray(np.log(matrix.rows).T)

    rel_err = np.empty((n_trials, max_shots))
    counts = _curve_counts(system, mu_true, cutoff, max_shots, n_trials, seed)
    # A block's first row adds the previous block's last row, kept in carry before exp.
    # Counts are in range, so mode="clip" changes nothing but lets take write into out.
    cap = min(max_shots, _CURVE_BLOCK_ROWS)
    buf, carry = np.empty((cap, log_cols.shape[1])), np.empty((min(n_trials, cap), log_cols.shape[1]))
    for g in range(0, n_trials, cap):
        cols = counts[g : g + cap].T
        width, depth = cols.shape[1], cap // cols.shape[1]
        for k0 in range(0, max_shots, depth):
            shots = range(k0, min(k0 + depth, max_shots))
            rows, prev = buf[: len(shots) * width], carry[:width]
            for k, row, c in zip(shots, rows.reshape(len(shots), width, -1), cols[k0 : shots.stop]):
                np.take(log_cols, c, axis=0, out=row, mode="clip")
                if k:
                    np.add(row, prev, out=row)
                prev = row
            np.copyto(carry[:width], prev)
            top, total, mode = _exp_rows(rows)
            lo, hi = _hpd_rows(rows, level, total, _curve_mode(rows, top, total, mode))
            rel_err[g : g + width, k0 : shots.stop] = ((hi - lo + 1) / mu_true).reshape(len(shots), width).T
    return RelativeErrorCurve(rel_err)
