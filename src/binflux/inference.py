"""Bayesian pulse-energy estimation from click counts.

The response matrix plays the role of the likelihood: column n holds
P(n clicks | mu) on the integer mu grid. With a flat prior over that grid
the posterior after one shot is just the renormalized column; repeated
shots multiply columns (summed in log space).

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

from ._rng import derive_seed
from .config import SystemConfig
from .errors import DegenerateEvidenceError
from .mc_engine import Coherent, simulate_batch
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


def _click_count(n, num_bins: int) -> int:
    """n as an int, checked to be an integer click count in [0, num_bins]."""
    # bool is an int subclass, but True is not a click count.
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= num_bins:
        raise ValueError(f"click count must be an integer in [0, {num_bins}], got {n!r}")
    return int(n)


def posterior_single(matrix: ResponseMatrix, n: int) -> Posterior:
    """Posterior after observing a single shot with n clicks."""
    n = _click_count(n, matrix.num_bins)
    col = matrix.rows[:, n]
    total = col.sum()
    if total == 0.0:
        raise DegenerateEvidenceError(f"{n} clicks has zero probability for every mu in the matrix")
    return Posterior(probs=col / total, log_evidence=math.log(total) - math.log(col.size))


def posterior_multi(
    matrix: ResponseMatrix,
    observations: Sequence[int],
    max_admissible_n: int | None = None,
) -> Posterior:
    """Posterior after a sequence of independent shots.

    Columns multiply, so the result does not depend on observation order.
    When max_admissible_n is given, any larger click count is rejected up
    front: such counts carry posterior mass beyond the mu grid and their
    columns are not trustworthy (see stability_max_n).
    """
    obs = np.array([_click_count(n, matrix.num_bins) for n in observations], dtype=np.int64)
    if obs.size == 0:
        raise ValueError("observations must contain at least one click count")
    if max_admissible_n is not None and obs.max() > max_admissible_n:
        raise ValueError(
            f"click count {int(obs.max())} exceeds the stability cutoff {max_admissible_n}: "
            f"the posterior for such counts leaks beyond mu_max={matrix.mu_max} and the "
            "grid answer would be an artifact of the truncation"
        )
    with np.errstate(divide="ignore"):
        logp = np.log(matrix.rows[:, obs]).sum(axis=1)
    top = logp.max()
    if not np.isfinite(top):
        raise DegenerateEvidenceError("the observed sequence has zero probability for every mu")
    post = np.exp(logp - top)
    total = post.sum()
    return Posterior(probs=post / total, log_evidence=float(top + math.log(total) - math.log(post.size)))


# Greedy steps _hpd_rows takes per pass: the first pass looks this far
# ahead, each later one twice as far, up to the cap, which keeps a pass's
# temporaries at a few (rows, cap) arrays whatever the row width.
_HPD_FIRST_WINDOW = 8
_HPD_MAX_WINDOW = 64
# float64 exp is exactly 0.0 at or below this (2**-1075 = exp(-745.13...)).
_EXP_FLOOR = -746.0


def _hpd_rows(P: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy highest-density interval [lo, hi] of every row of P at once.

    Each row grows from its mode, adding the more probable neighbor at each
    step (ties extend toward smaller mu) until its mass reaches level.

    A pass moves every row up to S steps at once. That greedy order is a
    stable merge: with L'_i = min(P[lo - 1], ..., P[lo - i]) the running
    minimum of the next i values on the left and R'_j the same on the
    right, left value i is taken at step i + #{j : R'_j > L'_i}: the
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
    lo = P.argmax(axis=1)
    hi = lo.copy()
    held = P[np.arange(k), lo]
    act = np.flatnonzero((held < level) & (n > 1))
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
            mass[i, t] = P[act[i], new_lo[i, t] : new_hi[i, t] + 1].sum()
        done = (mass >= level) | ((new_lo == 0) & (new_hi == n - 1))
        stopped = done.any(axis=1)
        last = np.where(stopped, done.argmax(axis=1), s - 1)
        lo[act], hi[act], held[act] = new_lo[pick, last], new_hi[pick, last], mass[pick, last]
        act = act[~stopped]
    return lo, hi


def _check_level(level: float) -> None:
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")


def credible_interval(posterior: Posterior, level: float = 0.90) -> CredibleInterval:
    """Smallest contiguous interval around the mode holding >= level mass.

    Grows greedily from the mode, at each step adding the more probable
    neighbor; ties extend toward smaller mu. This is the one-row case of
    the batched routine relative_error_curve uses; mass is the sum of the
    posterior over [lo, hi]. That routine takes up to 64 of these steps
    per numpy pass: ordering both sides' running minima in a stable
    descending merge, ties to the left, gives exactly the loop's order of
    steps (see _hpd_rows), so an interval 240 values wide costs six passes
    rather than 240.
    """
    _check_level(level)
    p = posterior.probs
    lo, hi = (int(x[0]) for x in _hpd_rows(p[None, :], level))
    return CredibleInterval(level=level, lo=lo, hi=hi, mass=float(p[lo : hi + 1].sum()))


def interval_to_energy(width_photons: float, wavelength: float = 1.55e-6) -> float:
    """Photon-count uncertainty expressed as pulse energy in joules."""
    if not 0.0 <= width_photons < math.inf:
        raise ValueError(f"width_photons must be finite and >= 0, got {width_photons!r}")
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength!r}")
    return width_photons * PLANCK_CONSTANT * SPEED_OF_LIGHT / wavelength


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

    One exact matrix is built on [0, 2 * mu_max]; the [0, mu_max] matrix is
    its first mu_max + 1 rows. For each n the posterior on the narrow grid
    is compared with the one on the wide grid. Because the former is the
    renormalised head of the latter, their total-variation distance equals
    the wide posterior's mass above mu_max. Counts up to the returned value
    all have a distance below tolerance; a count impossible on [0, mu_max]
    counts as unstable. Counts above the returned value should be
    discarded rather than inverted.
    """
    return _stability_build(system, mu_max, tolerance)[1]


def _stability_build(system: SystemConfig, mu_max: int, tolerance: float) -> tuple[ResponseMatrix, int]:
    """The [0, 2 * mu_max] matrix stability_max_n builds, and the cutoff it gives.

    Callers that also need the [0, mu_max] matrix take its first
    mu_max + 1 rows instead of building it again.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    wide = build_matrix(system, 2 * mu_max)
    unstable = np.flatnonzero(~(_stability_tv(wide.rows, mu_max) < tolerance))
    return wide, int(unstable[0]) - 1 if unstable.size else wide.num_bins


@dataclass
class RelativeErrorCurve:
    """Credible-interval width against accumulated shots, over repeated trials.

    rel_err[t, k - 1] is the 90% interval width divided by the true mu
    after k shots in trial t.
    """

    mu_true: float
    level: float
    rel_err: np.ndarray
    max_admissible_n: int | None

    def median(self) -> np.ndarray:
        return np.median(self.rel_err, axis=0)

    def quantile(self, q: float) -> np.ndarray:
        return np.quantile(self.rel_err, q, axis=0)

    def shots_to(self, threshold: float) -> float:
        """Median over trials of the first shot count reaching the threshold."""
        reached = self.rel_err <= threshold
        first = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, np.inf)
        return float(np.median(first))


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

    Each trial draws shots at the true mean, discards counts above the
    stability cutoff (drawing replacements), and records the posterior
    interval width after every accumulated shot. A trial's max_shots
    posteriors are built as one (shots, mu) array and their intervals found
    together by the same greedy rule credible_interval applies. Log
    posteriors at or below _EXP_FLOOR, where exp is exactly 0, are set to 0
    without calling exp, whose underflowing and denormal results are slow.
    """
    if mu_true <= 0.0:
        raise ValueError(f"mu_true must be > 0, got {mu_true!r}")
    if max_shots < 1 or n_trials < 1:
        raise ValueError("max_shots and n_trials must be >= 1")
    _check_level(level)
    weights = system.bin_weights()
    cutoff = matrix.num_bins if max_admissible_n is None else max_admissible_n
    with np.errstate(divide="ignore"):
        log_cols = np.ascontiguousarray(np.log(matrix.rows).T)

    rel_err = np.empty((n_trials, max_shots))
    for t in range(n_trials):
        trial_seed = derive_seed(seed, t)
        counts = np.empty(0, dtype=np.int64)
        start = 0
        empty_rounds = 0
        while counts.size < max_shots:
            want = max_shots - counts.size
            batch = simulate_batch(
                Coherent(mu_true),
                weights,
                system.detector,
                max(32, int(want * 1.25) + 8),
                trial_seed,
                start_shot=start,
                store_totals=True,
                workers=workers,
            )
            start += batch.n_shots
            fresh = batch.click_totals[batch.click_totals <= cutoff]
            # Guard against a cutoff that rejects essentially every shot.
            empty_rounds = empty_rounds + 1 if fresh.size == 0 else 0
            if empty_rounds >= 3:
                raise DegenerateEvidenceError(
                    f"stability cutoff {cutoff} rejects nearly every shot at mu={mu_true}; "
                    "the mu grid is too small for this source"
                )
            counts = np.concatenate([counts, fresh[:want]])
        # post[k] is the posterior after k + 1 shots; every step works in place.
        post = log_cols[counts]
        np.cumsum(post, axis=0, out=post)
        top = post.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            raise DegenerateEvidenceError("observed sequence impossible for every mu on the grid")
        post -= top
        keep = post > _EXP_FLOOR
        np.exp(post, out=post, where=keep)
        np.copyto(post, 0.0, where=~keep)
        post /= post.sum(axis=1, keepdims=True)
        lo, hi = _hpd_rows(post, level)
        rel_err[t] = (hi - lo + 1) / mu_true
    return RelativeErrorCurve(mu_true=mu_true, level=level, rel_err=rel_err, max_admissible_n=max_admissible_n)
