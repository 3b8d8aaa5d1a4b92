"""Random words with a fixed per-shot budget.

Reproducibility contract: a shot is addressed by (seed, shot_index) alone.
Each shot owns a fixed number of "lanes", 64-bit words decided up front by
the source and system. One PCG64DXSM stream per seed, seeded by
SeedSequence([seed]), gives every word: shot i with L lanes reads words
[i * L, (i + 1) * L), reached with advance(), which takes O(log) steps.
Every word drawn is a lane of some shot, and batch size, chunking, and
worker count cannot change a shot's outcome.

A lane serves either one full decision or two gate decisions:

* Full: the lane's top 53 bits, w >> 11, the integer behind
  Generator.random's double (w >> 11) * 2**-53. u >= p holds exactly when
  (w >> 11) >= lane_threshold(p). Photon routing reads full lanes.
* Half: each 32-bit half-word h, low half first, decides one Bernoulli
  gate. The event of probability p happens when h < ceil(p * 2**32)
  (gate_threshold), with probability ceil(p * 2**32) * 2**-32, which lies
  in [p, p + 2**-32). Coupling h with an exact-p uniform, B such decisions
  differ from exact-probability ones with probability below B * 2**-32,
  so the law of their click total is within that total variation of the
  exact law.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer

_LANE_BITS = 53
_HALF_BITS = 32


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """The SeedSequence that seeds a user seed's stream.

    Per-trial or per-row substreams take their seed from derive_seed.
    """
    return np.random.SeedSequence([_integer(seed, "seed")])


def derive_seed(seed: int, *stream: int) -> int:
    """Collapse (seed, stream ids) into a plain integer seed for a sub-run.

    Used where a component (a matrix row, a repeated trial) needs its own
    recordable seed that is still a pure function of the user seed.
    """
    return int(np.random.SeedSequence([_integer(seed, "seed"), *map(int, stream)]).generate_state(1, np.uint64)[0])


def lane_threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64: (w >> 11) >= lane_threshold(p) exactly when u >= p.

    p * 2**53 is exact in float64, so the ceiling loses nothing. p >= 1
    maps to 2**53 or more, above every full lane.
    """
    return np.ceil(np.ldexp(np.asarray(p, dtype=float), _LANE_BITS)).astype(np.uint64)


def gate_threshold(p) -> tuple[np.ndarray, np.ndarray]:
    """(t, full) with h < ceil(p * 2**32) exactly when (h < t) | full, for every half-word h.

    ceil(p * 2**32) is 2**32 for p > 1 - 2**-32, one past the uint32 range:
    every half-word lies below it. t clips it to 2**32 - 1 and full marks
    those gates, so p = 1 stays certain. p = 0 gives t = 0, below no
    half-word.
    """
    ceil = np.ceil(np.ldexp(np.asarray(p, dtype=float), _HALF_BITS))
    full = ceil >= 2.0**_HALF_BITS
    return np.minimum(ceil, 2.0**_HALF_BITS - 1).astype(np.uint32), full


def half_words(lanes: np.ndarray) -> np.ndarray:
    """The 32-bit halves of lanes (..., L) as (..., 2L) uint32, low half first; a view on little-endian hosts."""
    return lanes.astype("<u8", copy=False).view("<u4")


def uniform_lanes(seq: np.random.SeedSequence, start_shot: int, n_shots: int, lanes: int) -> np.ndarray:
    """Raw stream words (uint64), shape (n_shots, lanes), for a contiguous shot range.

    Lane j of row i is word (start_shot + i) * lanes + j of the stream.
    The rows are one freshly drawn block, so callers may shift them in
    place. Rows are independent of how the overall run is split into calls.
    Callers pass checked values: start_shot, n_shots >= 0 and lanes >= 1.
    """
    bitgen = np.random.PCG64DXSM(seq).advance(start_shot * lanes)
    return bitgen.random_raw(n_shots * lanes).reshape(n_shots, lanes)
