"""Exact click-count distributions.

With independent gates the click total of a coherent pulse is a
Poisson-binomial variable: each bin clicks with its own probability and the
distribution of the sum follows from one polynomial convolution per bin.
The mechanistic undershoot couples each gate to the previous gate of its
detector. Taken detector-major, each detector's gates in time order, the
gates form a finite Markov chain whose state is the click count and the
outcome of the last gate; one dynamic program over that chain gives its
exact law. Fock sources run the same chain with the photons not yet
detected added to its state, moved into each gate by a binomial transfer,
so both detector models are exact for both sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_model import (
    DetectorSpec,
    _gate_order,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from .mc_engine import Coherent, Fock, Source
from .multiplexer import BinWeights

# One gate's (n + 1)**2 transfer is held at a time.
FOCK_EXACT_CAP = 1000


@dataclass
class ClickDistribution:
    """Probability of observing k clicks, k = 0..B."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)

    @property
    def mean(self) -> float:
        return float(self.probs @ np.arange(self.probs.size))


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
    dist = np.ascontiguousarray(dist.T)  # normalised as (m, B + 1) rows: numpy's summation order
    dist /= dist.sum(axis=1, keepdims=True)
    return dist.reshape(p.shape[:-1] + (n_gates + 1,))


def _gate_step(silent, clicked, quiet, fired_silent, fired_clicked, miss: float) -> None:
    """One gate of the undershoot chain, in place on the state.

    silent and clicked hold the mass after a silent or a clicked previous
    gate, click count major: row k for k clicks so far, whose last row is
    still empty. quiet is the mass of every state that does not want to
    click at this gate; fired_silent and fired_clicked are the masses that
    do, after a silent or a clicked gate. Each has one row fewer than the
    state. Right after a click the gate misses with probability miss.
    """
    silent[:-1] = quiet + miss * fired_clicked
    clicked[0] = 0.0
    clicked[1:] = fired_silent + (1.0 - miss) * fired_clicked


def _undershoot_chain_pmf(click_probs, miss: np.ndarray) -> np.ndarray:
    """Click-total law of the mechanistic undershoot chain, all rows at once.

    click_probs and miss follow the gates of _gate_order. Gate j wants to
    click with p_j and then misses with miss_j after a click on the gate
    before. state[c, k] is the probability of k clicks so far with the last
    gate clicked (c = 1) or not (c = 0). Shapes as for poisson_binomial_pmf.
    """
    p = np.asarray(click_probs, dtype=float)
    rows = np.atleast_2d(p)
    m, n_gates = rows.shape
    state = np.zeros((2, n_gates + 1, m))
    state[0, 0] = 1.0
    for j, (pj, miss_j) in enumerate(zip(rows.T.copy(), miss)):
        silent, clicked = state[:, : j + 2]
        quiet = (silent[:-1] + clicked[:-1]) * (1.0 - pj)
        _gate_step(silent, clicked, quiet, *(state[:, : j + 1] * pj), miss_j)
    dist = np.ascontiguousarray(state.sum(axis=0).T)
    dist /= dist.sum(axis=1, keepdims=True)
    return dist.reshape(p.shape[:-1] + (n_gates + 1,))


def coherent_click_rows(mus, weights: BinWeights, detector: DetectorSpec) -> np.ndarray:
    """Exact click-count laws for coherent pulses, one row per mean in mus.

    A scalar mu gives one (B + 1,) distribution; a vector of m means gives
    an (m, B + 1) array from a single pass: the undershoot chain for a
    history-dependent detector, the Poisson-binomial DP otherwise.
    """
    # Each gate's click probability: one minus the no-click threshold the Monte Carlo kernel uses.
    # no_click_probabilities refuses a mean that is not finite and >= 0.
    p = 1.0 - no_click_probabilities(mus, weights, detector)
    if detector.history_dependent:
        order, miss = _gate_order(weights, detector)
        return _undershoot_chain_pmf(p[..., order], miss)
    return poisson_binomial_pmf(p)


def coherent_click_distribution(mu: float, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    """Exact click-count law for a coherent pulse."""
    return ClickDistribution(probs=coherent_click_rows(mu, weights, detector))


def _binomial_transfer(n: int, s: float) -> np.ndarray:
    """t[r, r'] = P(r' of r photons left by a gate that takes each with probability s).

    Pascal's rule builds row r, the Binomial(r, 1 - s) law, from row r - 1.
    """
    t = np.zeros((n + 1, n + 1))
    t[0, 0] = 1.0
    for r in range(1, n + 1):
        t[r, : r + 1] = np.convolve(t[r - 1, :r], (s, 1.0 - s))
    return t


def fock_click_distribution(n_photons: int, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    """Exact click-count law for an n-photon pulse, for every detector model.

    Each photon is detected in bin j with probability eta * q_j, as the
    Monte Carlo kernel routes it; the rest is lost or missed. The dynamic
    program sweeps the gates of _gate_order over the state of
    _undershoot_chain_pmf with the photons not yet detected added:
    state[c, k, r]. Of r photons left, gate j takes a Binomial(r, s_j) share
    with s_j = eta * q_j / (1 - eta * sum_{i<j} q_i), the sum over the gates
    before it in that order, moved by _binomial_transfer; routing by these
    shares is exact in any bin order. The gate wants to click when a photon
    lands or, when none does, on its dark count; right after a click on the
    gate before it then misses with miss_j.
    """
    n_photons = Fock(n_photons).n_photons  # rejects a bad photon number before any work
    if n_photons > FOCK_EXACT_CAP:
        raise ValueError(f"n_photons={n_photons} exceeds the exact-method cap of {FOCK_EXACT_CAP}")

    order, miss = _gate_order(weights, detector)
    detected = effective_efficiency(detector, float(n_photons)) * weights.weights[order]
    remaining = 1.0 - np.cumsum(detected) + detected
    shares = np.clip(detected / np.maximum(remaining, np.finfo(float).tiny), 0.0, 1.0)
    dark = per_bin_dark_probabilities(weights, detector)[order]

    state = np.zeros((2, weights.num_bins + 1, n_photons + 1))
    state[0, 0, n_photons] = 1.0
    for j, (s, dark_j, miss_j) in enumerate(zip(shares, dark, miss)):
        wants = _binomial_transfer(n_photons, s)
        # With no photon landing (the diagonal) the gate wants to click only on a dark count.
        none_land = np.diagonal(wants).copy()
        np.fill_diagonal(wants, none_land * dark_j)
        silent, clicked = state[:, : j + 2]
        quiet = (silent[:-1] + clicked[:-1]) * ((1.0 - dark_j) * none_land)
        _gate_step(silent, clicked, quiet, *(state[:, : j + 1] @ wants), miss_j)

    probs = state.sum(axis=(0, 2))
    return ClickDistribution(probs=probs / probs.sum())


def click_distribution(source: Source, weights: BinWeights, detector: DetectorSpec) -> ClickDistribution:
    if isinstance(source, Coherent):
        return coherent_click_distribution(source.mu, weights, detector)
    return fock_click_distribution(source.n_photons, weights, detector)
