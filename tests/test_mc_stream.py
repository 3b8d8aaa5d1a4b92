"""Pinned Monte Carlo streams (the mc3 lane layout).

The README promises that an MC row can be reproduced standalone from its
recorded seed. These digests of per-shot click totals were recorded when
the mc3 kernel, two 32-bit gate decisions per Philox word, replaced the
mc2 layout of one word per decision; any change to the lane layout or to
how a lane or half-word becomes a click changes them, so a kernel rewrite
that is meant to keep every output bit fails here if it does not. A change
that alters the stream on purpose is a new kernel version
(mc_engine.MC_KERNEL).
The mechanistic and large-Fock cases are also checked against the exact
oracle, and so is Fock(200) on the mechanistic system.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from binflux import (
    Coherent,
    Fock,
    MechanisticUndershoot,
    click_distribution,
    get_preset,
    simulate_batch,
    total_variation,
)

N_SHOTS = 2000
START_SHOT = 5


def _mechanistic():
    r32 = get_preset("rapid32")
    return dataclasses.replace(
        r32, detector=dataclasses.replace(r32.detector, undershoot=MechanisticUndershoot(0.3))
    )


# name -> (source, system factory or None for lossy_small, seed, sha256 of click_totals as <i8)
CASES = {
    "coherent.rapid32.mu100": (
        Coherent(100.0), lambda: get_preset("rapid32"), 1001,
        "11a89394f165e223a3b3f9d28b2ef38bd5b5cbeed7a4fece550c47bd34c89f33",
    ),
    "coherent.conventional16.mu10": (
        Coherent(10.0), lambda: get_preset("conventional16"), 1002,
        "08473b9473e654db633d04ac6c6a3d48f4ecf8276301658345c1970df01d1027",
    ),
    "mechanistic.rapid32.mu100": (
        Coherent(100.0), _mechanistic, 1003,
        "889f77bfdeb814ffe793942c7d0413f1b81c369d19a83124a9837b8cf129250f",
    ),
    "fock5.lossy_small": (
        Fock(5), None, 1004,
        "0eb74d47c915839d530c3987ab0d4362b9ff905782ccfede8c3836e927ed5c75",
    ),
    "fock80.rapid32": (
        Fock(80), lambda: get_preset("rapid32"), 1005,
        "5dc4718ca54a4b5bffb5d59813d19ee5a42b61bf14c4d69215c48f7652559179",
    ),
    "fock200.rapid32": (
        Fock(200), lambda: get_preset("rapid32"), 1006,
        "f0a50e9e36d2b7cf49cd7c57fc844dd23cc1adeae0c608229f2f4316fd4d6f3f",
    ),
    "fock200.mechanistic.rapid32": (
        Fock(200), _mechanistic, 1007,
        "d03c1be599db2bb784b7f4b3a52e3f9f4a5213308e615fcbef78c194e485639d",
    ),
}


def click_totals_digest(source, weights, detector, seed) -> str:
    batch = simulate_batch(
        source, weights, detector, N_SHOTS, seed, start_shot=START_SHOT, store_totals=True
    )
    return hashlib.sha256(np.asarray(batch.click_totals, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_click_totals_stream_is_pinned(name, lossy_small):
    source, system, seed, expected = CASES[name]
    if system is None:
        weights, detector = lossy_small
    else:
        s = system()
        weights, detector = s.bin_weights(), s.detector
    assert click_totals_digest(source, weights, detector, seed) == expected


def _assert_stream_matches_oracle(source, system, seed):
    # TV <= sqrt(B / N), as in test_mc2_kernel, against the exact law.
    s = system()
    weights = s.bin_weights()
    batch = simulate_batch(source, weights, s.detector, N_SHOTS, seed, start_shot=START_SHOT)
    exact = click_distribution(source, weights, s.detector).probs
    assert total_variation(batch.distribution, exact) <= math.sqrt(weights.num_bins / N_SHOTS)


def test_mechanistic_stream_matches_oracle():
    source, system, seed, _ = CASES["mechanistic.rapid32.mu100"]
    _assert_stream_matches_oracle(source, system, seed)


FOCK_ORACLE_CASES = {
    name: CASES[name][:3] for name in ("fock80.rapid32", "fock200.rapid32", "fock200.mechanistic.rapid32")
}


@pytest.mark.parametrize("name", sorted(FOCK_ORACLE_CASES))
def test_fock_stream_matches_oracle(name):
    _assert_stream_matches_oracle(*FOCK_ORACLE_CASES[name])
