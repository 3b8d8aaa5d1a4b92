"""Monte Carlo simulation of click patterns, deterministic per (seed, shot).

Every shot draws its randomness from fixed Philox counter lanes (see _rng),
so results are bit-identical across chunk sizes and worker counts. The lane
layout is versioned as the "mc2" stream (MC_KERNEL), which matrix
provenance and CLI manifests record. Lane layout per shot:

* Coherent source, B bins: lane b in [0, B) clicks gate b when
  u_b >= (1 - d_b) * exp(-mu * q_b * eta), the gate's no-click probability
  with its dark count folded in (detector_model.no_click_probabilities;
  no photon number is drawn). [B, 2B) undershoot suppression, reserved only
  for a history-dependent detector.
* Fock source with n photons: lanes [0, n) route photons to bins, then
  [n, n + B) dark clicks, and [n + B, n + 2B) undershoot suppression, again
  only for a history-dependent detector.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import philox_key, uniform_lanes
from .detector_model import (
    DetectorSpec,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from .multiplexer import BinWeights

FOCK_MC_CAP = 1_000_000

# Version of the lane layout above. Seeds recorded under another version
# do not reproduce their rows with this kernel.
MC_KERNEL = "mc2"

# Keep the per-chunk uniform block near 64 MB even for very wide lane
# layouts. Fock routing works through it in blocks of _ROUTE_BLOCK_CELLS
# (shot, photon) cells, so its int64 index array stays near 8 MB whatever
# the chunk length.
_CHUNK_BUDGET_DOUBLES = 8_388_608
_ROUTE_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class Coherent:
    """Coherent (laser) pulse with Poissonian photon number of mean mu."""

    mu: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu) or self.mu < 0.0:
            raise ValueError(f"Coherent.mu must be finite and >= 0, got {self.mu!r}")


@dataclass(frozen=True)
class Fock:
    """Pulse with exactly n_photons photons."""

    n_photons: int

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError(f"Fock.n_photons must be >= 0, got {self.n_photons!r}")


Source = Coherent | Fock


def describe_source(source: Source) -> dict:
    if isinstance(source, Coherent):
        return {"kind": "coherent", "mu": source.mu}
    return {"kind": "fock", "n_photons": source.n_photons}


@dataclass(frozen=True)
class ClickRecord:
    """One shot: which bins clicked and the click total."""

    pattern: np.ndarray
    n: int
    shot_index: int


@dataclass
class BatchResult:
    """Aggregated clicks from a batch of shots.

    histogram[k] counts shots with exactly k clicks. For Fock sources
    photon_sum holds the total detected photons per bin (before dark counts
    and undershoot); coherent sources draw no photon numbers, so it is None.
    click_totals is populated only on request.
    """

    histogram: np.ndarray
    n_shots: int
    bin_click_counts: np.ndarray
    photon_sum: np.ndarray | None
    click_totals: np.ndarray | None = None

    @property
    def distribution(self) -> np.ndarray:
        return self.histogram / self.n_shots

    @property
    def mean_clicks(self) -> float:
        return float(self.histogram @ np.arange(self.histogram.size)) / self.n_shots


class _Kernel:
    """Precomputed tables plus the per-chunk simulation pass."""

    def __init__(self, source: Source, weights: BinWeights, detector: DetectorSpec):
        detector.validate()
        b = weights.num_bins
        self.n_bins = b
        self.source = source
        if isinstance(source, Coherent):
            self.silent = no_click_probabilities(source.mu, weights, detector)
            self.lanes = b
        else:
            if source.n_photons > FOCK_MC_CAP:
                raise ValueError(
                    f"Fock.n_photons={source.n_photons} exceeds the Monte Carlo cap of {FOCK_MC_CAP}"
                )
            eta = effective_efficiency(detector, float(source.n_photons))
            self.dark = per_bin_dark_probabilities(weights, detector)
            cells = np.append(weights.weights * eta, max(0.0, 1.0 - eta * weights.weights.sum()))
            self.route_cum = np.cumsum(cells)
            self.route_cum[-1] = max(self.route_cum[-1], 1.0)
            self.lanes = source.n_photons + b
        self.us_off = self.lanes
        if detector.history_dependent:
            self.lanes += b
            self.p_miss = detector.undershoot.p_miss_next
            self.det_bins = [np.flatnonzero(weights.detector_of_bin == d) for d in (0, 1)]
        else:
            self.p_miss = 0.0
            self.det_bins = []

    def _fock_counts(self, u: np.ndarray) -> np.ndarray:
        """Detected photons per (shot, bin); cell B collects the lost ones."""
        n, photons = u.shape
        cells = self.n_bins + 1
        counts = np.empty((n, self.n_bins), dtype=np.int64)
        block = max(1, _ROUTE_BLOCK_CELLS // max(photons, 1))
        for r in range(0, n, block):
            m = min(block, n - r)
            idx = np.searchsorted(self.route_cum, u[r : r + m], side="right")
            idx += cells * np.arange(m)[:, None]
            routed = np.bincount(idx.ravel(), minlength=m * cells).reshape(m, cells)
            counts[r : r + m] = routed[:, : self.n_bins]
        return counts

    def run(self, key: np.ndarray, start_shot: int, n_shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Simulate shots [start_shot, start_shot + n_shots): (clicks, totals, Fock counts or None)."""
        u = uniform_lanes(key, start_shot, n_shots, self.lanes)
        b = self.n_bins
        if isinstance(self.source, Coherent):
            counts = None
            clicks = u[:, :b] >= self.silent
        else:
            n = self.source.n_photons
            counts = self._fock_counts(u[:, :n])
            clicks = (counts > 0) | (u[:, n : n + b] < self.dark)
        if self.p_miss > 0.0:
            u_us = u[:, self.us_off : self.us_off + b]
            for bins in self.det_bins:
                prev = np.zeros(n_shots, dtype=bool)
                for j in bins:
                    cl = clicks[:, j] & ~(prev & (u_us[:, j] < self.p_miss))
                    clicks[:, j] = cl
                    prev = cl
        return clicks, clicks.sum(axis=1), counts


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get("BINFLUX_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"BINFLUX_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValueError(f"BINFLUX_THREADS must be >= 1, got {env!r}")
        return cap
    return 1


def simulate_batch(
    source: Source,
    weights: BinWeights,
    detector: DetectorSpec,
    n_shots: int,
    seed: int,
    *,
    start_shot: int = 0,
    chunk_size: int = 65536,
    workers: int | None = None,
    store_totals: bool = False,
) -> BatchResult:
    """Simulate n_shots pulses and aggregate their click statistics.

    Results depend only on (seed, shot indices): chunk_size and workers are
    performance knobs that never change the outcome.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    kernel = _Kernel(source, weights, detector)
    key = philox_key(seed)
    chunk = max(1, min(chunk_size, _CHUNK_BUDGET_DOUBLES // kernel.lanes))
    starts = list(range(start_shot, start_shot + n_shots, chunk))
    sizes = [min(chunk, start_shot + n_shots - s) for s in starts]

    def process(job: tuple[int, int]):
        s, m = job
        clicks, totals, counts = kernel.run(key, s, m)
        hist = np.bincount(totals, minlength=kernel.n_bins + 1)
        photons = None if counts is None else counts.sum(axis=0)
        return hist, clicks.sum(axis=0), photons, totals if store_totals else None

    jobs = list(zip(starts, sizes))
    n_workers = min(_resolve_workers(workers), len(jobs))
    if n_workers == 1:
        parts = [process(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(process, jobs))

    histogram = np.zeros(kernel.n_bins + 1, dtype=np.int64)
    bin_clicks = np.zeros(kernel.n_bins, dtype=np.int64)
    photon_sum = None if isinstance(source, Coherent) else np.zeros(kernel.n_bins, dtype=np.int64)
    totals_parts: list[np.ndarray] = []
    for hist, bc, ps, totals in parts:
        histogram += hist
        bin_clicks += bc
        if ps is not None:
            photon_sum += ps
        if totals is not None:
            totals_parts.append(totals)
    return BatchResult(
        histogram=histogram,
        n_shots=n_shots,
        bin_click_counts=bin_clicks,
        photon_sum=photon_sum,
        click_totals=np.concatenate(totals_parts) if totals_parts else None,
    )


def simulate_shot(
    source: Source,
    weights: BinWeights,
    detector: DetectorSpec,
    seed: int,
    shot_index: int = 0,
) -> ClickRecord:
    """Simulate the single shot addressed by (seed, shot_index)."""
    kernel = _Kernel(source, weights, detector)
    clicks, totals, _ = kernel.run(philox_key(seed), shot_index, 1)
    return ClickRecord(pattern=clicks[0], n=int(totals[0]), shot_index=shot_index)
