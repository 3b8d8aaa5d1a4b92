"""Fiber-loop time multiplexer: bin weights, arrival times, timing checks.

A pulse entering the multiplexer passes a chain of couplers. At stage i it
either goes straight through or takes a fiber loop that delays it by
``loop_delays[i]``; a final coupler splits the output between two detectors.
Each of the 2**(m+1) binary path choices lands in its own time bin, so an
m-loop device spreads the pulse over 2**m arrival times on each of the two
detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, _integer, _items, _real


@dataclass(frozen=True)
class UniformLoss:
    """Identical insertion loss for every bin, given as an average in dB."""

    avg_loss_db: float = 0.0


@dataclass(frozen=True)
class ExplicitTransmission:
    """One transmission factor per bin, indexed by sorted bin order."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class MultiplexerSpec:
    """Static description of the loop-and-coupler network.

    coupler_ratios[i] is the power fraction routed into the delay branch at
    stage i; the last entry is the fraction sent to detector 1 at the output
    coupler. All default to a balanced 50/50 split.

    detector_assignment is either "final_coupler" (the output coupler branch
    decides which detector sees the bin) or an explicit tuple with one
    detector index, 0 or 1, per sorted bin.
    """

    loop_delays: tuple[float, ...]
    coupler_ratios: tuple[float, ...] | None = None
    transmission: UniformLoss | ExplicitTransmission = field(default_factory=UniformLoss)
    detector_assignment: str | tuple[int, ...] = "final_coupler"

    @property
    def num_loops(self) -> int:
        return len(self.loop_delays)

    @property
    def num_bins(self) -> int:
        return 2 ** (self.num_loops + 1)

    def ratios(self) -> tuple[float, ...]:
        if self.coupler_ratios is None:
            return (0.5,) * (self.num_loops + 1)
        return self.coupler_ratios

    def __post_init__(self) -> None:
        delays = _items(self.loop_delays, "loop_delays")
        if len(delays) == 0:
            raise ConfigurationError("loop_delays: need at least one loop")
        delays = tuple(_real(d, f"loop_delays[{i}]", 0.0, error=ConfigurationError) for i, d in enumerate(delays))
        object.__setattr__(self, "loop_delays", delays)
        if self.coupler_ratios is not None:
            ratios = _items(self.coupler_ratios, "coupler_ratios")
            if len(ratios) != self.num_loops + 1:
                raise ConfigurationError(
                    f"coupler_ratios: expected {self.num_loops + 1} entries "
                    f"(one per loop stage plus the output coupler), got {len(ratios)}"
                )
            named = enumerate(ratios)
            checked = tuple(_real(r, f"coupler_ratios[{i}]", 0.0, 1.0, error=ConfigurationError) for i, r in named)
            object.__setattr__(self, "coupler_ratios", checked)
        t = self.transmission
        if isinstance(t, UniformLoss):
            loss = _real(t.avg_loss_db, "transmission.avg_loss_db", 0.0, brackets="[)", error=ConfigurationError)
            t = UniformLoss(loss)
        elif isinstance(t, ExplicitTransmission):
            values = _items(t.values, "transmission.values")
            if len(values) != self.num_bins:
                raise ConfigurationError(f"transmission.values: expected {self.num_bins} entries, got {len(values)}")
            values = enumerate(values)
            t = ExplicitTransmission(
                tuple(_real(v, f"transmission.values[{i}]", 0.0, 1.0, "(]", ConfigurationError) for i, v in values)
            )
        else:
            raise ConfigurationError(f"transmission: unsupported type {type(t).__name__}")
        object.__setattr__(self, "transmission", t)
        da = self.detector_assignment
        if isinstance(da, str):
            if da != "final_coupler":
                raise ConfigurationError(f"detector_assignment: unknown mode {da!r}")
        else:
            da = _items(da, "detector_assignment")
            if len(da) != self.num_bins:
                raise ConfigurationError(f"detector_assignment: expected {self.num_bins} entries, got {len(da)}")
            da = tuple(_integer(v, f"detector_assignment[{i}]", 0, 1, ConfigurationError) for i, v in enumerate(da))
            half = self.num_bins // 2
            if sum(da) != half:
                raise ConfigurationError(f"detector_assignment: each detector must watch exactly {half} bins")
            object.__setattr__(self, "detector_assignment", da)


@dataclass
class BinWeights:
    """Per-bin routing weights, sorted by arrival time.

    weights[b] is the probability that a photon entering the multiplexer
    exits in bin b (coupler path probability times bin transmission), so the
    total can fall below 1 when the fibers are lossy. arrival_times is
    nondecreasing; detector_of_bin holds 0 or 1. A table that breaks any of
    these raises ValueError when it is built.
    """

    weights: np.ndarray
    arrival_times: np.ndarray
    detector_of_bin: np.ndarray

    def __post_init__(self) -> None:
        w, t, d = self.weights, self.arrival_times, self.detector_of_bin
        if not (w.ndim == t.ndim == d.ndim == 1 and w.size == t.size == d.size):
            raise ValueError("BinWeights: weights, arrival_times and detector_of_bin must be 1-D and of one length")
        # A NaN weight fails the first test and an infinite one the second.
        if not ((w >= 0.0).all() and w.sum() <= 1.0 + 1e-12):
            raise ValueError(f"BinWeights.weights: must be finite and >= 0 and sum to at most 1, got sum {w.sum()!r}")
        if not (t[1:] >= t[:-1]).all():
            raise ValueError("BinWeights.arrival_times: must not decrease")
        if d.dtype.kind not in "iu" or not ((d == 0) | (d == 1)).all():
            raise ValueError("BinWeights.detector_of_bin: entries must be the integers 0 or 1")
        for arr in (w, t, d):
            arr.setflags(write=False)

    @property
    def num_bins(self) -> int:
        return self.weights.size

    def bins_of_detector(self, detector: int) -> np.ndarray:
        return np.flatnonzero(self.detector_of_bin == detector)


@dataclass(frozen=True)
class TimingReport:
    """Result of checking bin spacing against detector deadtime."""

    min_spacing: float
    train_length: float
    max_rep_rate: float
    deadtime: float
    guard: float
    deadtime_ok: bool


def build_bin_weights(spec: MultiplexerSpec) -> BinWeights:
    """Enumerate all coupler paths and return the sorted bin table."""
    m = spec.num_loops
    n_bins = spec.num_bins
    ratios = spec.ratios()

    probs = np.empty(n_bins)
    times = np.empty(n_bins)
    branch = np.empty(n_bins, dtype=np.int64)
    for path in range(n_bins):
        p = 1.0
        t = 0.0
        for i in range(m):
            if (path >> i) & 1:
                p *= ratios[i]
                t += spec.loop_delays[i]
            else:
                p *= 1.0 - ratios[i]
        out = (path >> m) & 1
        p *= ratios[m] if out else 1.0 - ratios[m]
        probs[path] = p
        times[path] = t
        branch[path] = out

    order = np.lexsort((branch, times))
    probs = probs[order]
    times = times[order]
    branch = branch[order]

    t = spec.transmission
    if isinstance(t, UniformLoss):
        trans = np.full(n_bins, 10.0 ** (-t.avg_loss_db / 10.0))
    else:
        trans = np.asarray(t.values, dtype=float)

    if isinstance(spec.detector_assignment, str):
        detector = branch
    else:
        detector = np.asarray(spec.detector_assignment, dtype=np.int64)

    return BinWeights(weights=probs * trans, arrival_times=times, detector_of_bin=detector)


def validate_timing(weights: BinWeights, deadtime: float, guard: float | None = None) -> TimingReport:
    """Check that consecutive bins on each detector clear its deadtime.

    guard defaults to the deadtime itself: the next pulse may not arrive
    until the last bin's gate has closed and the detector has recovered.
    Equality of spacing and deadtime counts as satisfying the constraint
    (back-to-back gating is the designed operating point).
    """
    deadtime = _real(deadtime, "deadtime", 0.0, brackets="[)")
    guard = deadtime if guard is None else _real(guard, "guard", 0.0, brackets="[)")

    min_spacing = math.inf
    for det in (0, 1):
        ts = np.sort(weights.arrival_times[weights.bins_of_detector(det)])
        if ts.size >= 2:
            gap = float(np.min(np.diff(ts)))
            min_spacing = min(min_spacing, gap)

    train_length = float(weights.arrival_times.max()) + guard
    max_rep_rate = math.inf if train_length == 0.0 else 1.0 / train_length
    # Relative slack absorbs float rounding in sums of repeated delays.
    ok = min_spacing >= deadtime * (1.0 - 1e-9)
    return TimingReport(
        min_spacing=min_spacing,
        train_length=train_length,
        max_rep_rate=max_rep_rate,
        deadtime=deadtime,
        guard=guard,
        deadtime_ok=ok,
    )
