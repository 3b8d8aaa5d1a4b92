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

The kernel never forms the uniforms u. Lanes are 53-bit integers, and each
probability above becomes an integer threshold once per call
(_rng.lane_threshold), so every test is an exact integer comparison with
the outcome the float test gives: the stream is the same mc2 stream, bit
for bit. Photons are routed by a bucket table over the top 12 lane bits
instead of a binary search. A photon lane at or above the lost cell's
threshold reaches no bin; one comparison drops those lanes (about 89 % of
a Fock(200) pulse on rapid32), so only the detected photons are routed.
Clicks are kept one row per bin, and chunks hold about 2**19 lanes so that
their arrays stay cache-sized.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._rng import lane_threshold, philox_key, uniform_lanes
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

# Lanes per chunk: 4 MB of uint64, so a chunk's lanes and the arrays made
# from them stay near the CPU caches whatever the lane layout.
_CHUNK_LANES = 1 << 19
# Fock routing buckets: the top 12 of a lane's 53 bits pick the bucket.
_ROUTE_SHIFT = 41
_ROUTE_BUCKETS = 1 << 12


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
        # bool is an int subclass, but True is not a photon number.
        if isinstance(self.n_photons, bool) or not isinstance(self.n_photons, (int, np.integer)):
            raise ValueError(f"Fock.n_photons must be an integer, got {self.n_photons!r}")
        if self.n_photons < 0:
            raise ValueError(f"Fock.n_photons must be >= 0, got {self.n_photons!r}")
        object.__setattr__(self, "n_photons", int(self.n_photons))


Source = Coherent | Fock


def describe_source(source: Source) -> dict:
    if isinstance(source, Coherent):
        return {"kind": "coherent", "mu": source.mu}
    return {"kind": "fock", "n_photons": source.n_photons}


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
    photon_sum: np.ndarray | None
    click_totals: np.ndarray | None = None

    @property
    def distribution(self) -> np.ndarray:
        return self.histogram / self.n_shots

    @property
    def mean_clicks(self) -> float:
        return float(self.histogram @ np.arange(self.histogram.size)) / self.n_shots


def _routing_table(route: np.ndarray) -> tuple[np.ndarray, int]:
    """Bucket table for _route over sorted thresholds whose last entry is >= 2**53.

    table[k] is the cell of the first lane in bucket k, and span is the
    most thresholds that lie inside one bucket.
    """
    bucket = np.arange(_ROUTE_BUCKETS, dtype=np.uint64) << _ROUTE_SHIFT
    table = np.searchsorted(route, bucket, side="right")
    last = np.searchsorted(route, bucket + ((1 << _ROUTE_SHIFT) - 1), side="right")
    return table, int((last - table).max())


def _route(lanes: np.ndarray, route: np.ndarray, table: np.ndarray, span: int) -> np.ndarray:
    """np.searchsorted(route, lanes, side="right") as a table lookup plus span fix-up steps.

    A lane's cell is the number of thresholds at or below it. The table
    gives that number for the first lane of the lane's bucket, and each
    step moves past at most one more threshold.
    """
    idx = table[(lanes >> _ROUTE_SHIFT).view(np.int64)]
    for _ in range(span):
        idx += lanes >= route[idx]
    return idx


class _Kernel:
    """Integer thresholds and routing tables plus the per-chunk simulation pass."""

    def __init__(self, source: Source, weights: BinWeights, detector: DetectorSpec):
        detector.validate()
        b = weights.num_bins
        self.n_bins = b
        self.source = source
        if isinstance(source, Coherent):
            self.silent = lane_threshold(no_click_probabilities(source.mu, weights, detector))
            self.lanes = b
        else:
            if source.n_photons > FOCK_MC_CAP:
                raise ValueError(
                    f"Fock.n_photons={source.n_photons} exceeds the Monte Carlo cap of {FOCK_MC_CAP}"
                )
            eta = effective_efficiency(detector, float(source.n_photons))
            self.dark = lane_threshold(per_bin_dark_probabilities(weights, detector))
            cells = np.append(weights.weights * eta, max(0.0, 1.0 - eta * weights.weights.sum()))
            route_cum = np.cumsum(cells)
            route_cum[-1] = max(route_cum[-1], 1.0)
            self.route = lane_threshold(route_cum)
            self.route_table, self.route_span = _routing_table(self.route)
            self.lanes = source.n_photons + b
        self.us_off = self.lanes
        if detector.history_dependent:
            self.lanes += b
            self.miss = lane_threshold(detector.undershoot.p_miss_next)
            self.det_bins = [np.flatnonzero(weights.detector_of_bin == d) for d in (0, 1)]
        else:
            self.miss = None
            self.det_bins = []

    def _fock_hits(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Route photon lanes (shots, n): (photon hit mask (shots, B), detected photons per bin).

        A lane at or above the lost cell's threshold route[B - 1] lands in
        the lost cell, so only the lanes below it are routed and counted.
        """
        (m, n), b = lanes.shape, self.n_bins
        pos = np.flatnonzero(lanes < self.route[b - 1])
        shot = pos // n
        idx = _route(lanes[shot, pos - shot * n], self.route, self.route_table, self.route_span)
        photons = np.bincount(idx, minlength=b)
        hit = np.zeros((m, b), dtype=bool)
        hit.ravel()[shot * b + idx] = True
        return hit, photons

    def run(self, key: np.ndarray, start_shot: int, n_shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Simulate shots [start_shot, start_shot + n_shots).

        Returns the clicks with one row per bin (B, n_shots), the click
        totals as uint8 (uint32 past 255 bins) and, for Fock sources, the
        detected photons per bin summed over the shots.
        """
        lanes = uniform_lanes(key, start_shot, n_shots, self.lanes)
        b = self.n_bins
        if isinstance(self.source, Coherent):
            photons = None
            clicks = lanes[:, :b] >= self.silent
        else:
            n = self.source.n_photons
            hit, photons = self._fock_hits(lanes[:, :n])
            clicks = lanes[:, n : n + b] < self.dark
            clicks |= hit
        clicks = np.ascontiguousarray(clicks.T)
        if self.miss is not None:
            miss = np.ascontiguousarray((lanes[:, self.us_off : self.us_off + b] < self.miss).T)
            for bins in self.det_bins:
                for prev, j in zip(bins[:-1], bins[1:]):
                    clicks[j] &= ~(clicks[prev] & miss[j])
        totals = np.add.reduce(clicks.view(np.uint8), axis=0, dtype=np.uint8 if b < 256 else np.uint32)
        return clicks, totals, photons


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
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    kernel = _Kernel(source, weights, detector)
    key = philox_key(seed)
    chunk = max(1, min(chunk_size, _CHUNK_LANES // kernel.lanes))
    starts = list(range(start_shot, start_shot + n_shots, chunk))
    sizes = [min(chunk, start_shot + n_shots - s) for s in starts]

    def process(job: tuple[int, int]):
        s, m = job
        _, totals, photons = kernel.run(key, s, m)
        hist = np.bincount(totals, minlength=kernel.n_bins + 1)
        return hist, photons, totals.astype(np.int64) if store_totals else None

    jobs = list(zip(starts, sizes))
    n_workers = min(_resolve_workers(workers), len(jobs))
    if n_workers == 1:
        parts = [process(j) for j in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool pays for this import

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(process, jobs))

    histogram = np.zeros(kernel.n_bins + 1, dtype=np.int64)
    photon_sum = None if isinstance(source, Coherent) else np.zeros(kernel.n_bins, dtype=np.int64)
    totals_parts: list[np.ndarray] = []
    for hist, ps, totals in parts:
        histogram += hist
        if ps is not None:
            photon_sum += ps
        if totals is not None:
            totals_parts.append(totals)
    return BatchResult(
        histogram=histogram,
        n_shots=n_shots,
        photon_sum=photon_sum,
        click_totals=np.concatenate(totals_parts) if totals_parts else None,
    )
