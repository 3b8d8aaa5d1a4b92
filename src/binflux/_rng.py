"""Counter-based random numbers with a fixed per-shot budget.

Reproducibility contract: a shot is addressed by (seed, shot_index) alone.
Each shot owns a fixed number of "lanes" decided up front by the source and
system, and lane j of shot i is always drawn from the same Philox counters,
so batch size, chunking, and worker count cannot change a shot's outcome.

Philox emits 4 64-bit words per counter, so a shot with L lanes reserves
ceil(L / 4) counters. Shot i uses counters [i * steps, (i + 1) * steps);
unused tail lanes are reserved but never read.

A lane is a 53-bit integer, the word w shifted right by 11 bits. numpy's
Generator.random turns the same word into the double (w >> 11) * 2**-53,
and that product is exact, so u >= p holds exactly when
lane >= lane_threshold(p). Every decision the kernels make is such an
integer comparison: they draw the same stream as the float uniforms and
reach the same outcome for every shot.
"""

from __future__ import annotations

import numpy as np

_OUTPUTS_PER_COUNTER = 4
_LANE_BITS = 53


def philox_key(seed: int) -> np.ndarray:
    """Derive a 128-bit Philox key from a user seed.

    Per-trial or per-row substreams take their seed from derive_seed.
    """
    return np.random.SeedSequence([int(seed)]).generate_state(2, np.uint64)


def derive_seed(seed: int, *stream: int) -> int:
    """Collapse (seed, stream ids) into a plain integer seed for a sub-run.

    Used where a component (a matrix row, a repeated trial) needs its own
    recordable seed that is still a pure function of the user seed.
    """
    return int(np.random.SeedSequence([int(seed), *map(int, stream)]).generate_state(1, np.uint64)[0])


def lane_threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64: lane >= lane_threshold(p) exactly when u >= p.

    p * 2**53 is exact in float64, so the ceiling loses nothing. p >= 1
    maps to 2**53 or more, above every lane.
    """
    return np.ceil(np.ldexp(np.asarray(p, dtype=float), _LANE_BITS)).astype(np.uint64)


def uniform_lanes(key: np.ndarray, start_shot: int, n_shots: int, lanes: int) -> np.ndarray:
    """53-bit integer lanes (uint64), shape (n_shots, lanes), for a contiguous shot range.

    Lane j of row i is the j-th word of shot start_shot + i shifted right
    by 11 bits, the integer behind Generator.random's uniform on the same
    counter. Rows are independent of how the overall run is split into calls.
    """
    if lanes <= 0:
        raise ValueError(f"lanes must be positive, got {lanes}")
    if n_shots < 0 or start_shot < 0:
        raise ValueError("shot range must be nonnegative")
    steps = -(-lanes // _OUTPUTS_PER_COUNTER)
    block = np.random.Philox(counter=start_shot * steps, key=key).random_raw(
        n_shots * steps * _OUTPUTS_PER_COUNTER
    )
    block >>= 64 - _LANE_BITS
    return block.reshape(n_shots, steps * _OUTPUTS_PER_COUNTER)[:, :lanes]
