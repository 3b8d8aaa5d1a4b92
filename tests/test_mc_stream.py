"""Pinned Monte Carlo streams (the mc4 stream).

The README promises that an MC row can be reproduced standalone from its
recorded seed. These digests of per-shot click totals were recorded when
the mc4 stream, mc3's lane layout on PCG64DXSM words, replaced mc3's
Philox words; any change to the word source, to the lane layout or to
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
        "b20c6b3ae17265df224f40a5fd815bf3e3631f309adcdc675fd9f90672592532",
    ),
    "coherent.conventional16.mu10": (
        Coherent(10.0), lambda: get_preset("conventional16"), 1002,
        "310ea11e6999e013d04f519bdc127e437590ec8fd2ba78990ad09e6466dd5fcf",
    ),
    "mechanistic.rapid32.mu100": (
        Coherent(100.0), _mechanistic, 1003,
        "0b1f14af1d80bbb7c2d4ceb85669e08218796b168a85b19b639f677d85e9495f",
    ),
    "fock5.lossy_small": (
        Fock(5), None, 1004,
        "617b2472f70e7fcca92560476623e5ed2a8c9e8d190b9fdd0d0d9bae94b6b162",
    ),
    "fock80.rapid32": (
        Fock(80), lambda: get_preset("rapid32"), 1005,
        "3f19680d13dfc42cb4894f6f0f78a8b1433633f37913f32f3e4038eaf7b9ad9c",
    ),
    "fock200.rapid32": (
        Fock(200), lambda: get_preset("rapid32"), 1006,
        "540f90ed6807e550b58a64788824699f5e49eab22b3be1248e6edb4f1cb84104",
    ),
    "fock200.mechanistic.rapid32": (
        Fock(200), _mechanistic, 1007,
        "49da242719380768d6b4668df99101633ebd559908a55bb4eab6845e96050335",
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
