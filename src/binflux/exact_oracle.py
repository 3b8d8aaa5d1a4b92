"""Exact click-count distributions.

With independent gates the click total of a coherent pulse is a
Poisson-binomial variable: each bin clicks with its own probability and the
distribution of the sum follows from one polynomial convolution per bin.
The mechanistic undershoot couples each gate to the previous gate of its
detector, which makes the gates a finite Markov chain in bin order; one
dynamic program over that chain, tracking the click count and the last
outcome of each detector, gives its exact law. Fock sources run the same
chain with the photons not yet detected added to its state, moved into each
gate by a binomial transfer, so both detector models are exact for both
sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_model import (
    DetectorSpec,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from .mc_engine import Coherent, Fock, Source
from .multiplexer import BinWeights

# The transfer matrices take (n + 1)**2 doubles per bin.
FOCK_EXACT_CAP = 1000


@dataclass
class ClickDistribution:
    """Probability of observing k clicks, k = 0..num_bins."""

    probs: np.ndarray
    source: Source

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)

    @property
    def num_bins(self) -> int:
        return self.probs.size - 1

    @property
    def mean(self) -> float:
        return float(self.probs @ np.arange(self.probs.size))

    @property
    def variance(self) -> float:
        k = np.arange(self.probs.size)
        return float(self.probs @ k**2) - self.mean**2


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def poisson_binomial_pmf(click_probs: np.ndarray) -> np.ndarray:
    """Distribution of the number of successes among independent gates.

    click_probs of shape (B,) gives the (B + 1,) distribution; shape (m, B)
    gives an (m, B + 1) array with one distribution per row. Both run the
    same dynamic program over the gates, all rows at once, in place on a
    click-count-major (B + 1, m) array: after gate j,
    dist[k] = dist[k] * (1 - p_j) + dist[k - 1] * p_j.
    """
    p = np.asarray(click_probs, dtype=float)
    rows = np.atleast_2d(p)
    m, n_gates = rows.shape
    dist = np.zeros((n_gates + 1, m))
    dist[0] = 1.0
    for j, pj in enumerate(rows.T.copy()):
        fired = dist[: j + 1] * pj
        dist[: j + 2] *= 1.0 - pj
        dist[1 : j + 2] += fired
    # Roundoff can leave tiny negatives.
    np.clip(dist, 0.0, None, out=dist)
    dist = np.ascontiguousarray(dist.T)  # normalised as (m, B + 1) rows: numpy's summation order
    dist /= dist.sum(axis=1, keepdims=True)
    return dist.reshape(p.shape[:-1] + (n_gates + 1,))


def _undershoot_chain_pmf(click_probs, detector_of_bin, p_miss: float) -> np.ndarray:
    """Click-total law of the mechanistic undershoot chain, all rows at once.

    Gate j clicks with p_j, or with p_j * (1 - p_miss) when the previous
    gate of its detector clicked. dist[a, b, k] is the probability of k
    clicks so far with detector 0's last gate clicked (a = 1) or not (a = 0),
    and likewise b for detector 1. Layout and shapes as for poisson_binomial_pmf.
    """
    p = np.asarray(click_probs, dtype=float)
    rows = np.atleast_2d(p)
    m, n_gates = rows.shape
    dist = np.zeros((2, 2, n_gates + 1, m))
    dist[0, 0, 0] = 1.0
    kept_buf, missed_buf = np.empty((2, 2, n_gates + 1, m))
    for j, (pj, d) in enumerate(zip(rows.T.copy(), detector_of_bin)):
        kept = pj * (1.0 - p_miss)
        # Views on dist, split by the last outcome of gate j's detector.
        silent, clicked = np.moveaxis(dist[:, :, : j + 2], int(d), 0)
        fired_kept = np.multiply(clicked[:, :-1], kept, out=kept_buf[:, : j + 1])
        missed = np.multiply(clicked, 1.0 - kept, out=missed_buf[:, : j + 2])
        np.multiply(silent[:, :-1], pj, out=clicked[:, 1:])
        clicked[:, 1:] += fired_kept
        clicked[:, 0] = 0.0
        silent *= 1.0 - pj
        silent += missed
    dist = np.ascontiguousarray(dist.sum(axis=(0, 1)).T)
    dist /= dist.sum(axis=1, keepdims=True)
    return dist.reshape(p.shape[:-1] + (n_gates + 1,))


def per_bin_click_probabilities(mu, weights: BinWeights, detector: DetectorSpec) -> np.ndarray:
    """Click probability of each gate under a coherent pulse of mean mu.

    One minus detector_model.no_click_probabilities, the threshold the Monte
    Carlo kernel tests coherent shots against. A scalar mu gives shape (B,);
    a vector of m values gives (m, B).
    """
    return 1.0 - no_click_probabilities(mu, weights, detector)


def coherent_click_rows(mus, weights: BinWeights, detector: DetectorSpec) -> np.ndarray:
    """Exact click-count laws for coherent pulses, one row per mean in mus.

    A scalar mu gives one (B + 1,) distribution; a vector of m means gives
    an (m, B + 1) array from a single pass: the undershoot chain for a
    history-dependent detector, the Poisson-binomial DP otherwise.
    """
    mu = np.asarray(mus, dtype=float)
    if not np.isfinite(mu).all() or (mu < 0.0).any():
        raise ValueError(f"mu must be finite and >= 0, got {mus!r}")
    p = per_bin_click_probabilities(mu, weights, detector)
    if detector.history_dependent:
        return _undershoot_chain_pmf(p, weights.detector_of_bin, detector.undershoot.p_miss_next)
    return poisson_binomial_pmf(p)


def coherent_click_distribution(mu: float, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    """Exact click-count law for a coherent pulse."""
    return ClickDistribution(probs=coherent_click_rows(mu, weights, detector), source=Coherent(mu))


def fock_click_distribution(n_photons: int, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    """Exact click-count law for an n-photon pulse, for every detector model.

    Each photon is detected in bin j with probability eta * q_j, as the
    Monte Carlo kernel routes it; the rest is lost or missed. The dynamic
    program sweeps the gates over the state of _undershoot_chain_pmf with
    the photons not yet detected added: dist[a, b, r, k]. Of r photons
    left, bin j takes a Binomial(r, s_j) share with
    s_j = eta * q_j / (1 - eta * sum_{i<j} q_i), one lower-triangular
    transfer matrix per bin. The gate wants to click when a photon lands or,
    when none does, on its dark count; right after a click on its detector
    it then misses with p_miss, which is 0 for independent gates.
    """
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    if n_photons > FOCK_EXACT_CAP:
        raise ValueError(f"n_photons={n_photons} exceeds the exact-method cap of {FOCK_EXACT_CAP}")
    detector.validate()

    detected = effective_efficiency(detector, float(n_photons)) * weights.weights
    remaining = 1.0 - np.cumsum(detected) + detected
    shares = np.clip(detected / np.maximum(remaining, np.finfo(float).tiny), 0.0, 1.0)
    dark = per_bin_dark_probabilities(weights, detector)
    p_miss = getattr(detector.undershoot, "p_miss_next", 0.0)

    # Transfer matrix: [r', r] = C(r, m) s^m (1 - s)^r' when m = r - r' of r photons land.
    left = np.arange(n_photons + 1)[:, None]
    landing = left.T - left
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, n_photons + 1)))])
    log_comb = np.where(landing >= 0, log_fact[left.T] - log_fact[np.maximum(landing, 0)] - log_fact[left], -np.inf)

    dist = np.zeros((2, 2, n_photons + 1, weights.num_bins + 1))
    dist[0, 0, n_photons, 0] = 1.0
    for j, d in enumerate(weights.detector_of_bin):
        s = shares[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_t = log_comb + np.where(landing > 0, landing * np.log(s), 0.0)
            log_t += np.where(left > 0, left * np.log1p(-s), 0.0)
        wants = np.exp(log_t)
        # With no photon landing (the diagonal) the gate wants to click only on a dark count.
        none_land = np.diagonal(wants).copy()
        np.fill_diagonal(wants, none_land * dark[j])
        view = dist[..., : j + 2]
        silent, clicked = np.moveaxis(view, int(d), 0)
        wants_silent, wants_clicked = np.moveaxis(wants @ view, int(d), 0)
        silent[...] = ((1.0 - dark[j]) * none_land)[:, None] * (silent + clicked) + p_miss * wants_clicked
        clicked[..., 0] = 0.0
        clicked[..., 1:] = (wants_silent + (1.0 - p_miss) * wants_clicked)[..., :-1]

    probs = dist.sum(axis=(0, 1, 2))
    np.clip(probs, 0.0, None, out=probs)
    return ClickDistribution(probs=probs / probs.sum(), source=Fock(n_photons))


def click_distribution(source: Source, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    if isinstance(source, Coherent):
        return coherent_click_distribution(source.mu, weights, detector)
    return fock_click_distribution(source.n_photons, weights, detector)
