"""Gated avalanche photodiode model: efficiency, dark counts, undershoot.

The detector pair is gated once per bin. A gate either clicks or stays
silent; photon number within the gate is not resolved. Two undershoot
models describe the gain sag that follows an avalanche:

* GlobalEfficiency derates the quantum efficiency as a function of the mean
  photon number of the incident pulse, interpolating between measured
  anchor points. It keeps every click statistically independent, so exact
  distributions stay available.
* MechanisticUndershoot suppresses each gate immediately following a click
  on the same detector with a fixed probability. This makes bins interact:
  taken detector-major, each detector's gates in time order, the gates form
  a Markov chain whose state is the outcome of the last gate, and the exact
  oracle computes its exact law for coherent and Fock pulses alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _DIMENSION, ConfigurationError, _integer, _items, _real, _shown
from .multiplexer import BinWeights


def _pair(entry, field: str, shape: str) -> tuple:
    """entry unpacked as two items, or ConfigurationError naming field."""
    try:
        first, second = entry
    except (TypeError, ValueError):
        raise ConfigurationError(f"{field}: expected a {shape} pair, got {_shown(entry)}") from None
    return first, second


@dataclass(frozen=True)
class GlobalEfficiency:
    """Efficiency anchors (mu, eta) interpolated linearly, clamped at the ends."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        anchors = _items(self.points, "undershoot.points")
        if len(anchors) == 0:
            raise ConfigurationError("undershoot.points: need at least one anchor")
        points, last_mu = [], -math.inf
        for i, point in enumerate(anchors):
            mu, eta = _pair(point, f"undershoot.points[{i}]", "(mu, eta)")
            mu = _real(mu, f"undershoot.points[{i}].mu", 0.0, brackets="[)", error=ConfigurationError)
            if mu <= last_mu:
                raise ConfigurationError("undershoot.points: mu anchors must be strictly increasing")
            points.append((mu, _real(eta, f"undershoot.points[{i}].eta", 0.0, 1.0, "(]", ConfigurationError)))
            last_mu = mu
        object.__setattr__(self, "points", tuple(points))

    def efficiency_at(self, mu):
        """Efficiency at mu; an array of mu gives an array of the same shape."""
        mus = [p[0] for p in self.points]
        etas = [p[1] for p in self.points]
        eta = np.interp(mu, mus, etas)
        return float(eta) if np.ndim(eta) == 0 else eta


@dataclass(frozen=True)
class MechanisticUndershoot:
    """Each gate right after a click on the same detector misses with this probability."""

    p_miss_next: float

    def __post_init__(self) -> None:
        p_miss_next = _real(self.p_miss_next, "undershoot.p_miss_next", 0.0, 1.0, "[]", ConfigurationError)
        object.__setattr__(self, "p_miss_next", p_miss_next)


@dataclass(frozen=True)
class DetectorSpec:
    """Parameters of the two gated detectors.

    efficiency is the nominal quantum efficiency; dark_prob_per_gate holds
    one dark-click probability per detector. afterpulse_metadata is carried
    along for reporting only and never enters any calculation; its
    (name, value) pairs are stored sorted by name, so the order they come
    in does not make two specs differ.
    """

    efficiency: float
    dark_prob_per_gate: tuple[float, float]
    gate_width: float
    deadtime: float
    undershoot: GlobalEfficiency | MechanisticUndershoot | None = None
    afterpulse_metadata: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self) -> None:
        efficiency = _real(self.efficiency, "efficiency", 0.0, 1.0, "(]", ConfigurationError)
        object.__setattr__(self, "efficiency", efficiency)
        darks = enumerate(_pair(self.dark_prob_per_gate, "dark_prob_per_gate", "(detector 0, detector 1)"))
        checked = tuple(_real(d, f"dark_prob_per_gate[{i}]", 0.0, 1.0, "[)", ConfigurationError) for i, d in darks)
        object.__setattr__(self, "dark_prob_per_gate", checked)
        gate_width = _real(self.gate_width, "gate_width", 0.0, error=ConfigurationError)
        object.__setattr__(self, "gate_width", gate_width)
        deadtime = _real(self.deadtime, "deadtime", 0.0, brackets="[)", error=ConfigurationError)
        object.__setattr__(self, "deadtime", deadtime)
        if not isinstance(self.undershoot, (GlobalEfficiency, MechanisticUndershoot, type(None))):
            raise ConfigurationError(f"undershoot: unsupported type {type(self.undershoot).__name__}")
        if self.afterpulse_metadata is not None:
            entries = enumerate(_items(self.afterpulse_metadata, "afterpulse_metadata"))
            pairs = [_pair(entry, f"afterpulse_metadata[{i}]", "(name, value)") for i, entry in entries]
            for i, (k, _) in enumerate(pairs):
                if not isinstance(k, str) or k in (name for name, _ in pairs[:i]):
                    raise ConfigurationError(
                        f"afterpulse_metadata[{i}]: expected a string name not used before, got {_shown(k)}"
                    )
            checked = sorted((k, _real(v, f"afterpulse_metadata.{k}", error=ConfigurationError)) for k, v in pairs)
            object.__setattr__(self, "afterpulse_metadata", tuple(checked))

    @property
    def history_dependent(self) -> bool:
        """True when clicks in one bin can suppress later bins."""
        return isinstance(self.undershoot, MechanisticUndershoot) and self.undershoot.p_miss_next > 0.0


def effective_efficiency(spec: DetectorSpec, mean_photon_number):
    """Quantum efficiency after applying the global undershoot derating, if any.

    An array of mean photon numbers gives an array of efficiencies when the
    derating depends on it, and the scalar nominal efficiency otherwise.
    """
    mu = np.asarray(mean_photon_number)
    # An int past the largest double stays a Python int in an object array, and fails the second test.
    if not np.all((mu >= 0.0) & (mu <= sys.float_info.max)):
        raise ValueError(f"mean_photon_number must be finite and >= 0, got {_shown(mean_photon_number)}")
    if isinstance(spec.undershoot, GlobalEfficiency):
        return spec.undershoot.efficiency_at(mu)
    return spec.efficiency


def per_bin_dark_probabilities(weights: BinWeights, spec: DetectorSpec) -> np.ndarray:
    """Dark-click probability of each bin, looked up by its detector."""
    darks = np.asarray(spec.dark_prob_per_gate, dtype=float)
    return darks[weights.detector_of_bin]


def no_click_probabilities(mu, weights: BinWeights, spec: DetectorSpec) -> np.ndarray:
    """Probability that each gate stays silent under a coherent pulse of mean mu.

    The photon number reaching bin b is Poisson with mean mu * q_b, so the
    no-click factor (1 - eta)**k averages to exp(-mu * q_b * eta); the gate
    must also escape its dark count, which leaves (1 - d_b) times that. A
    scalar mu gives shape (B,); a vector of m values gives (m, B).
    """
    eta = np.asarray(effective_efficiency(spec, mu))
    mu = np.asarray(mu, dtype=float)
    dark = per_bin_dark_probabilities(weights, spec)
    return (1.0 - dark) * np.exp(-mu[..., None] * weights.weights * eta[..., None])


def shot_dark_probability(spec: DetectorSpec, bins_per_detector: int) -> float:
    """Probability that at least one of the gates of a full train darks out."""
    bins_per_detector = _integer(bins_per_detector, "bins_per_detector", 0, _DIMENSION)
    quiet = 1.0
    for d in spec.dark_prob_per_gate:
        quiet *= (1.0 - d) ** bins_per_detector
    return 1.0 - quiet


def _gate_order(weights: BinWeights, detector: DetectorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The gates detector-major, each detector's in time order, and each gate's miss probability.

    The undershoot couples a gate only to the previous gate of its own
    detector. In this order that gate is the one just before, or none at a
    detector's first gate, so the outcome of the last gate is the whole
    undershoot state. miss is p_miss_next, the chance that a gate right
    after a click misses; it is 0 at each detector's first gate and
    everywhere for independent gates.
    """
    order = np.argsort(weights.detector_of_bin, kind="stable")
    miss = np.full(order.size, detector.undershoot.p_miss_next if detector.history_dependent else 0.0)
    miss[np.diff(weights.detector_of_bin[order], prepend=-1) != 0] = 0.0
    return order, miss
