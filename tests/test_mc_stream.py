"""Pinned Monte Carlo streams.

The README promises that an MC row can be reproduced standalone from its
recorded seed. These digests of per-shot click totals were recorded once;
any change to the lane layout or to how a lane becomes a click changes
them, so a kernel rewrite that is meant to keep every output bit fails
here if it does not.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from binflux import Coherent, Fock, MechanisticUndershoot, get_preset, simulate_batch

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
        "b778cc9a9e908c552d63feb074240050d2210afbd6cd1d0718a0cf5e218760b6",
    ),
    "coherent.conventional16.mu10": (
        Coherent(10.0), lambda: get_preset("conventional16"), 1002,
        "efe7f48dd56d9fc5c4a2ca883e6d7917f5b1dc1b8e5b792aeeb69a4d8110b423",
    ),
    "mechanistic.rapid32.mu100": (
        Coherent(100.0), _mechanistic, 1003,
        "ef49a80691c8258476b5a26cf90c62acef87802c34272ad94af59c31e20e91a2",
    ),
    "fock5.lossy_small": (
        Fock(5), None, 1004,
        "e1a222070d1fb72dc235dec9520395e2321b32449b7b59004291cb6cbc18fb4d",
    ),
    "fock80.rapid32": (
        Fock(80), lambda: get_preset("rapid32"), 1005,
        "92106d78b5a3012285c86b9b77d37b0e49eef8345bc958d04fbbfb4096f969df",
    ),
    "fock200.rapid32": (
        Fock(200), lambda: get_preset("rapid32"), 1006,
        "d18795c61d1276668a1f0ef682dc4eb784641b3b09c552720aefe660687a901f",
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
