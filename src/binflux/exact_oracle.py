"""Exact click-count distributions.

With independent gates the click total of a coherent pulse is a
Poisson-binomial variable: each bin clicks with its own probability and the
distribution of the sum follows from one polynomial convolution per bin.
The mechanistic undershoot couples each gate to the previous gate of its
detector, which makes the gates a finite Markov chain in bin order; one
dynamic program over that chain, tracking the click count and the last
outcome of each detector, gives its exact law. Fock sources are exact for
independent gates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector_model import (
    DetectorSpec,
    click_probability,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from .errors import ModelUnsupportedError
from .mc_engine import Coherent, Fock, Source
from .multiplexer import BinWeights

FOCK_EXACT_CAP = 12


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
    same dynamic program over the gates, all rows at once: after gate j,
    dist[:, k] = dist[:, k] * (1 - p_j) + dist[:, k - 1] * p_j.
    """
    p = np.asarray(click_probs, dtype=float)
    rows = np.atleast_2d(p)
    m, n_gates = rows.shape
    dist = np.zeros((m, n_gates + 1))
    dist[:, 0] = 1.0
    for j in range(n_gates):
        pj = rows[:, j : j + 1]
        qj = 1.0 - pj
        dist[:, 1 : j + 2] = dist[:, 1 : j + 2] * qj + dist[:, : j + 1] * pj
        dist[:, :1] *= qj
    # Roundoff can leave tiny negatives.
    np.clip(dist, 0.0, None, out=dist)
    dist /= dist.sum(axis=1, keepdims=True)
    return dist.reshape(p.shape[:-1] + (n_gates + 1,))


def _undershoot_chain_pmf(click_probs, detector_of_bin, p_miss: float) -> np.ndarray:
    """Click-total law of the mechanistic undershoot chain, all rows at once.

    Gate j clicks with p_j, or with p_j * (1 - p_miss) when the previous
    gate of its detector clicked. dist[a, b, :, k] is the probability of k
    clicks so far with detector 0's last gate clicked (a = 1) or not (a = 0),
    and likewise b for detector 1. Shapes as for poisson_binomial_pmf.
    """
    p = np.asarray(click_probs, dtype=float)
    rows = np.atleast_2d(p)
    m, n_gates = rows.shape
    dist = np.zeros((2, 2, m, n_gates + 1))
    dist[0, 0, :, 0] = 1.0
    for j, d in enumerate(detector_of_bin):
        pj = rows[:, j : j + 1]
        kept = pj * (1.0 - p_miss)
        # Views on dist, split by the last outcome of gate j's detector.
        silent, clicked = np.moveaxis(dist[..., : j + 2], int(d), 0)
        fired = silent[..., :-1] * pj + clicked[..., :-1] * kept
        silent *= 1.0 - pj
        silent += clicked * (1.0 - kept)
        clicked[..., 0] = 0.0
        clicked[..., 1:] = fired
    dist = dist.sum(axis=(0, 1))
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


def fock_click_distribution(
    n_photons: int,
    weights: BinWeights,
    detector: DetectorSpec,
    cap: int = FOCK_EXACT_CAP,
) -> ClickDistribution:
    """Exact click-count law for an n-photon pulse.

    Photons split over bins multinomially (weights q_b, remainder lost in
    the fibers); the dynamic program tracks (photons still unassigned,
    clicks so far) while sweeping the bins, so the cost stays polynomial
    instead of the (B + 1)**n of direct enumeration.
    """
    if detector.history_dependent:
        raise ModelUnsupportedError(
            "mechanistic undershoot with a Fock source has no exact law here; use the Monte Carlo engine"
        )
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    if n_photons > cap:
        raise ValueError(f"n_photons={n_photons} exceeds the exact-method cap of {cap}")
    detector.validate()

    q = weights.weights
    b = weights.num_bins
    eta = effective_efficiency(detector, float(n_photons))
    dark = per_bin_dark_probabilities(weights, detector)
    lost = max(0.0, 1.0 - float(q.sum()))
    # suffix[j] = probability mass not yet consumed before bin j.
    suffix = np.concatenate([np.cumsum(q[::-1])[::-1] + lost, [lost]])

    dp = np.zeros((n_photons + 1, b + 1))
    dp[n_photons, 0] = 1.0
    for j in range(b):
        share = q[j] / suffix[j] if suffix[j] > 0.0 else 0.0
        new = np.zeros_like(dp)
        for r in range(n_photons + 1):
            row = dp[r]
            if not row.any():
                continue
            for k in range(r + 1):
                w = math.comb(r, k) * share**k * (1.0 - share) ** (r - k)
                if w == 0.0:
                    continue
                pc = click_probability(k, eta, float(dark[j]))
                new[r - k, :] += row * (w * (1.0 - pc))
                new[r - k, 1:] += row[:-1] * (w * pc)
        dp = new

    probs = dp.sum(axis=0)
    np.clip(probs, 0.0, None, out=probs)
    return ClickDistribution(probs=probs / probs.sum(), source=Fock(n_photons))


def click_distribution(source: Source, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    if isinstance(source, Coherent):
        return coherent_click_distribution(source.mu, weights, detector)
    return fock_click_distribution(source.n_photons, weights, detector)
