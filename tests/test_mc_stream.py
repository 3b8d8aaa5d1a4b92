"""Pinned Monte Carlo streams (the mc2 lane layout).

The README promises that an MC row can be reproduced standalone from its
recorded seed. These digests of per-shot click totals were recorded once,
when the mc2 kernel replaced the v1 layout; any change to the lane layout
or to how a lane becomes a click changes them, so a kernel rewrite that is
meant to keep every output bit fails here if it does not. A change that
alters the stream on purpose is a new kernel version (mc_engine.MC_KERNEL).
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
        "c62847aaac89b1e95669204bb5687b3c71f1a98df93be5808e1d16f5e33706a3",
    ),
    "coherent.conventional16.mu10": (
        Coherent(10.0), lambda: get_preset("conventional16"), 1002,
        "ae00db2b43a25ad97463c80b3d853f506f8c66d4b52db974bec1d7cb61acf282",
    ),
    "mechanistic.rapid32.mu100": (
        Coherent(100.0), _mechanistic, 1003,
        "420572974eedd517f14153de39de9fe64b6c0d75be63871e289cc4ffd534cfd1",
    ),
    "fock5.lossy_small": (
        Fock(5), None, 1004,
        "c7bc35a39e40027df214c94686614c71aaba7cc81dc101a060785218a9a7d947",
    ),
    "fock80.rapid32": (
        Fock(80), lambda: get_preset("rapid32"), 1005,
        "4893035c7f7e23f13bb22f9d6cb057bd26dc9ee73baa8cfbb299d1e579548320",
    ),
    "fock200.rapid32": (
        Fock(200), lambda: get_preset("rapid32"), 1006,
        "1a62fde87e96389c8e51e48a4909089e9646c1b32f30b4746b98677fe6bc880d",
    ),
    "fock200.mechanistic.rapid32": (
        Fock(200), _mechanistic, 1007,
        "37c44d366ad7eaf59480ac2a82d230d228e30e10f46d6ef73bab639ea9972172",
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
