"""Monte Carlo simulation of click patterns, deterministic per (seed, shot).

Every shot draws its randomness from fixed words of one PCG64DXSM stream
(see _rng), so results are bit-identical across chunk sizes and worker
counts. The lane layout is versioned as the "mc4" stream (MC_KERNEL), which
matrix provenance and CLI manifests record. Gate decisions read 32-bit
half-words, two per lane, low half first. Lane layout per shot:

* Coherent source, B bins: half-word b in [0, B) clicks gate b when
  h_b >= ceil(s_b * 2**32), s_b = (1 - d_b) * exp(-mu * q_b * eta) the
  gate's no-click probability with its dark count folded in
  (detector_model.no_click_probabilities; no photon number is drawn).
  Half-words [B, 2B) are undershoot misses, reserved only for a
  history-dependent detector. That is ceil(B / 2) or B lanes.
* Fock source with n photons: lanes [0, n) route photons to bins, each a
  full 53-bit lane, then the gate half-words: [0, B) dark clicks and
  [B, 2B) undershoot misses, again only for a history-dependent detector.

A dark click or a miss of probability p happens when h < ceil(p * 2**32).
Each probability becomes an integer threshold once per call
(_rng.gate_threshold, _rng.lane_threshold), so every decision is an
integer comparison, equal to the float test u >= s or u < p on
u = h * 2**-32 or u = (w >> 11) * 2**-53. A gate's event then has
probability within 2**-32 of its exact p, and p = 0 and p = 1 stay
certain; the click total's law is within B * 2**-32 of the exact law
(2B * 2**-32 with undershoot misses). Photons are routed by a bucket table
over the top 12 bits of a full lane instead of a binary search. A photon
lane at or above the lost cell's threshold reaches no bin; one comparison
on the raw words drops those lanes (about 89 % of a Fock(200) pulse on
rapid32), so only the detected photons are shifted to lanes and routed.

Clicks are kept one row per shot, one byte per gate, each row padded with
zero bytes to whole 64-bit words. A shot's click total is the byte count
of the sum of its words, (w * 0x0101010101010101) >> 56, taken over at
most 31 words at a time so that no byte sum reaches 256; no copy of the
clicks is made. Only the undershoot chain, which walks the gates one
after another, makes a copy with one row per gate.

simulate_rows runs several sources with one lane layout (any coherent
means, say) on common random numbers: each chunk of about 2**17 lanes
(1 MB of words) is drawn once, and every source's row is decided on that
one read-only block. Row i is bit-identical to simulate_batch of source i
with the same seed, and simulate_batch is the one-row case of that loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._rng import _LANE_BITS, gate_threshold, half_words, lane_threshold, seed_sequence, uniform_lanes
from .detector_model import (
    DetectorSpec,
    _gate_order,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
)
from .errors import _integer, _real
from .multiplexer import BinWeights

FOCK_MC_CAP = 1_000_000

# Version of the lane layout above. Seeds recorded under another version
# do not reproduce their rows with this kernel.
MC_KERNEL = "mc4"

# Lanes per chunk: 1 MB of uint64, so a chunk's words, which stay alive while
# every row sharing them is decided, and the arrays made from them stay near
# the CPU caches whatever the lane layout.
_CHUNK_LANES = 1 << 17
# Shot rows per gate comparison: against thresholds tiled this many times, one
# numpy inner loop covers that many shots wherever their rows lie contiguous.
_TILE_ROWS = 32
# Words of 0/1 bytes added before one byte count: 31 of them hold at most 248
# ones, so no byte sum of the added words carries into the next byte.
_COUNT_WORDS = 31
# Fock routing buckets: the top 12 of a lane's 53 bits pick the bucket.
_ROUTE_SHIFT = 41
_ROUTE_BUCKETS = 1 << 12
# Times a 64-bit word of 0/1 bytes, its top byte is the word's byte count.
_BYTE_ONES = np.uint64(0x0101010101010101)


@dataclass(frozen=True)
class Coherent:
    """Coherent (laser) pulse with Poissonian photon number of mean mu."""

    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _real(self.mu, "Coherent.mu", 0.0, brackets="[)"))


@dataclass(frozen=True)
class Fock:
    """Pulse with exactly n_photons photons."""

    n_photons: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_photons", _integer(self.n_photons, "Fock.n_photons"))


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


def _click_totals(rows: np.ndarray, dtype) -> np.ndarray:
    """Per-row sums of (shots, 8k) clicks whose pad bytes are zero.

    The row's words are added _COUNT_WORDS at a time, and each sum's byte
    count is added to the total.
    """
    words = rows.view(np.uint64)
    totals = None
    for lo in range(0, words.shape[1], _COUNT_WORDS):
        group = words[:, lo : lo + _COUNT_WORDS]
        added = group[:, 0].copy()
        for c in range(1, group.shape[1]):
            added += group[:, c]
        added *= _BYTE_ONES
        added >>= 56
        totals = added if totals is None else totals + added
    return totals.astype(dtype)


def _compare(op, gates: np.ndarray, tiled: np.ndarray, out: np.ndarray) -> None:
    """op(gates, t, out=out) for (shots, B) arrays, tiled being t in _TILE_ROWS rows.

    Whole blocks of _TILE_ROWS shots are compared against the tiled rows,
    which numpy runs as one inner loop per block where the rows of gates
    and out lie contiguous, and the last shots against the first rows.
    """
    m, b = gates.shape
    k = m - m % _TILE_ROWS
    op(gates[:k].reshape(-1, _TILE_ROWS, b), tiled, out=out[:k].reshape(-1, _TILE_ROWS, b))
    op(gates[k:], tiled[: m - k], out=out[k:])


class _Kernel:
    """Integer thresholds and routing tables plus the per-chunk simulation pass."""

    def __init__(self, source: Source, weights: BinWeights, detector: DetectorSpec):
        b = weights.num_bins
        self.n_bins = b
        self.source = source
        if isinstance(source, Coherent):
            self.silent = gate_threshold(no_click_probabilities(source.mu, weights, detector))
            self.gate_off = 0
        else:
            if source.n_photons > FOCK_MC_CAP:
                raise ValueError(
                    f"Fock.n_photons={source.n_photons} exceeds the Monte Carlo cap of {FOCK_MC_CAP}"
                )
            eta = effective_efficiency(detector, float(source.n_photons))
            self.dark = gate_threshold(per_bin_dark_probabilities(weights, detector))
            cells = np.append(weights.weights * eta, max(0.0, 1.0 - eta * weights.weights.sum()))
            route_cum = np.cumsum(cells)
            route_cum[-1] = max(route_cum[-1], 1.0)
            self.route = lane_threshold(route_cum)
            self.route_table, self.route_span = _routing_table(self.route)
            # The lost cell's threshold on raw words, a Python int: 2**64 or more, above every
            # word, when no photon is lost (numpy compares an int past uint64 exactly).
            self.lost = int(self.route[b - 1]) << (64 - _LANE_BITS)
            self.gate_off = source.n_photons
        # The threshold of the first B half-words (silent for coherent, dark for Fock), tiled for _compare.
        self.tiled = np.empty((_TILE_ROWS, b), dtype=np.uint32)
        self.tiled[:] = (self.silent if isinstance(source, Coherent) else self.dark)[0]
        self.miss = None
        if detector.history_dependent:
            self.miss = gate_threshold(np.full(b, detector.undershoot.p_miss_next))
            order, miss = _gate_order(weights, detector)
            self.chain = [(order[j - 1], order[j]) for j in np.flatnonzero(miss)]
        # Two gate decisions per lane: B half-words, and B more for undershoot misses.
        gates = b if self.miss is None else 2 * b
        self.lanes = self.gate_off + -(-gates // 2)
        self.row_bytes = -(-b // 8) * 8
        self.total_type = np.uint8 if b < 256 else np.uint32

    def _fock_hits(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Route raw photon words (shots, n): (photon hit mask (shots, B), detected photons per bin).

        A photon's lane is its word's top 53 bits, w >> 11. A lane at or
        above the lost cell's threshold route[B - 1] lands in the lost cell,
        which on the raw word is w >= route[B - 1] << 11. Only the words
        below that are shifted to lanes, routed and counted.
        """
        (m, n), b = words.shape, self.n_bins
        pos = np.flatnonzero(words < self.lost)
        shot = pos // n
        pos -= shot * n
        detected = words[shot, pos]
        del pos  # one array fewer alive while routing: the chunk's peak memory
        detected >>= 64 - _LANE_BITS
        idx = _route(detected, self.route, self.route_table, self.route_span)
        photons = np.bincount(idx, minlength=b)
        hit = np.zeros((m, b), dtype=bool)
        hit.ravel()[shot * b + idx] = True
        return hit, photons

    def _decide(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Clicks before undershoot, misses (shots, B) or None, and detected photons.

        words are the chunk's (shots, lanes) stream words, only read. The
        clicks are rows of row_bytes bytes, (shots, row_bytes), whose bytes
        past B are zero.
        """
        gates = half_words(words[:, self.gate_off :])
        b = self.n_bins
        photons = None
        if isinstance(self.source, Fock):
            # Routed before the rows exist: the routing arrays set the chunk's peak memory.
            hit, photons = self._fock_hits(words[:, : self.gate_off])
        rows = np.empty((words.shape[0], self.row_bytes), dtype=bool)
        rows[:, b:] = False
        clicks = rows[:, :b]
        if photons is None:
            _compare(np.greater_equal, gates[:, :b], self.tiled, clicks)
            clicks[:, self.silent[1]] = False
        else:
            _compare(np.less, gates[:, :b], self.tiled, clicks)
            clicks[:, self.dark[1]] = True
            clicks |= hit
        if self.miss is None:
            return rows, None, photons
        t, full = self.miss
        miss = gates[:, b : 2 * b] < t
        miss[:, full] = True
        return rows, miss, photons

    def run(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Simulate the shots whose stream words are the rows of words (shots, lanes).

        Returns the clicks with one row per shot (shots, B), the click
        totals as uint8 (uint32 past 255 bins) and, for Fock sources, the
        detected photons per bin summed over the shots. Independent gates
        are totalled in their shot rows. The undershoot chain runs on a
        copy with one row per gate, whose transpose is returned.
        """
        rows, miss, photons = self._decide(words)
        if miss is None:
            return rows[:, : self.n_bins], _click_totals(rows, self.total_type), photons
        clicks = np.ascontiguousarray(rows[:, : self.n_bins].T)
        miss = np.ascontiguousarray(miss.T)
        for prev, j in self.chain:
            clicks[j] &= ~(clicks[prev] & miss[j])
        totals = np.add.reduce(clicks.view(np.uint8), axis=0, dtype=self.total_type)
        return clicks.T, totals, photons


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return _integer(workers, "workers", 1)
    env = os.environ.get("BINFLUX_THREADS", "").strip() or "1"
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"BINFLUX_THREADS must be an integer, got {env!r}") from None
    return _integer(cap, "BINFLUX_THREADS", 1)


def simulate_rows(
    sources: list[Source],
    weights: BinWeights,
    detector: DetectorSpec,
    n_shots: int,
    seed: int,
    *,
    start_shot: int = 0,
    workers: int | None = None,
    store_totals: bool = False,
) -> list[BatchResult]:
    """Simulate n_shots pulses of each source, every source on the same stream words.

    The sources must share one lane layout: coherent sources of any means,
    or Fock sources of one photon number. Each chunk's words are drawn once
    and read by every source, so result i is bit-identical to
    simulate_batch(sources[i], ..., seed) and the rows' sampling errors are
    correlated (common random numbers). Results depend only on (seed, shot
    indices): workers, which splits the chunks, never changes them.
    """
    n_shots = _integer(n_shots, "n_shots", 1)
    start_shot = _integer(start_shot, "start_shot")
    n_workers = _resolve_workers(workers)
    kernels = [_Kernel(source, weights, detector) for source in sources]
    layouts = {kernel.lanes for kernel in kernels}
    if len(layouts) != 1:
        raise ValueError(f"sources: expected at least one, all with one lane layout, got lanes {sorted(layouts)}")
    (lanes,) = layouts
    seq = seed_sequence(seed)
    chunk = max(1, _CHUNK_LANES // lanes)
    n_bins = weights.num_bins
    jobs = [(s, min(chunk, start_shot + n_shots - s)) for s in range(start_shot, start_shot + n_shots, chunk)]

    results = [
        BatchResult(
            histogram=np.zeros(n_bins + 1, dtype=np.int64),
            n_shots=n_shots,
            photon_sum=None if isinstance(source, Coherent) else np.zeros(n_bins, dtype=np.int64),
        )
        for source in sources
    ]
    totals_parts: list[list[np.ndarray]] = [[] for _ in sources]

    def process(job: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
        words = uniform_lanes(seq, *job, lanes)
        words.setflags(write=False)
        parts = []
        for kernel in kernels:
            _, totals, photons = kernel.run(words)
            parts.append((np.bincount(totals, minlength=n_bins + 1), photons, totals))
        return parts

    def add(chunks) -> None:
        # Each chunk is added as it arrives, so memory does not grow with rows times chunks.
        for parts in chunks:
            for result, kept, (hist, photons, totals) in zip(results, totals_parts, parts):
                result.histogram += hist
                if photons is not None:
                    result.photon_sum += photons
                if store_totals:
                    kept.append(totals.astype(np.int64))

    n_workers = min(n_workers, len(jobs))
    if n_workers == 1:
        add(map(process, jobs))
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool pays for this import

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            add(pool.map(process, jobs))
    if store_totals:
        for result, kept in zip(results, totals_parts):
            result.click_totals = np.concatenate(kept)
    return results


def simulate_batch(
    source: Source,
    weights: BinWeights,
    detector: DetectorSpec,
    n_shots: int,
    seed: int,
    *,
    start_shot: int = 0,
    workers: int | None = None,
    store_totals: bool = False,
) -> BatchResult:
    """Simulate n_shots pulses and aggregate their click statistics: simulate_rows of one source.

    Results depend only on (seed, shot indices): workers is a performance
    knob that never changes the outcome.
    """
    (result,) = simulate_rows(
        [source], weights, detector, n_shots, seed,
        start_shot=start_shot, workers=workers, store_totals=store_totals,
    )
    return result
