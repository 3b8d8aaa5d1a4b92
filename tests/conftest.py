import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import binflux.mc_engine as mc_engine
from binflux import (
    DetectorSpec,
    MechanisticUndershoot,
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
    build_matrix,
    get_preset,
)


_approx = pytest.approx


def _approx_with_a_stated_abs(expected, rel=None, abs=None, nan_ok=False):
    """pytest.approx that fails when its default abs of 1e-12 swamps the rel it states.

    With abs left out, approx accepts anything within max(rel * |expected|,
    1e-12), rel 1e-6 by default. Below 1e-12 / rel the stated rel is then
    not what is checked: on a nonzero expected value that small, a test must
    give abs itself, abs=0 for a purely relative check.
    """
    values = list(expected.values()) if isinstance(expected, dict) else expected
    try:
        magnitudes = np.abs(np.asarray(values, dtype=float)).ravel()
    except (TypeError, ValueError):
        magnitudes = np.empty(0)
    nonzero = magnitudes[np.isfinite(magnitudes) & (magnitudes > 0.0)]
    if abs is None and nonzero.size and 1e-12 > (1e-6 if rel is None else rel) * nonzero.min():
        pytest.fail(
            f"approx({expected!r}, rel={rel!r}) leaves abs at its default 1e-12, which is larger "
            "than the relative tolerance there; state abs (abs=0 for a purely relative check)"
        )
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _approx_with_a_stated_abs


# The false-alarm rate of every assert_law check: a sampler that follows
# the law fails one with at most this probability.
LAW_ALPHA = 1e-9


def assert_law(hist, probs, alpha=LAW_ALPHA) -> float:
    """Fail unless hist, a click-total histogram of N draws, fits the law probs (summing to 1); return eps.

    Dvoretzky-Kiefer-Wolfowitz with Massart's constant: for N independent
    draws from any law on the integers, discrete ones included, the largest
    gap between the empirical and the true CDF exceeds
    eps = sqrt(ln(2 / alpha) / (2 N)) with probability at most
    2 exp(-2 N eps^2) = alpha, whatever the number of bins. A law whose CDF
    lies more than 2 eps from probs' somewhere fails with probability at
    least 1 - alpha. Dvoretzky, Kiefer and Wolfowitz, Ann. Math. Statist.
    27, 642 (1956); Massart, Ann. Probab. 18, 1269 (1990).
    """
    hist, probs = np.asarray(hist, dtype=float), np.asarray(probs, dtype=float)
    size = max(hist.size, probs.size)
    hist, probs = (np.pad(a, (0, size - a.size)) for a in (hist, probs))
    n = hist.sum()
    eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    gap = np.abs(np.cumsum(hist) / n - np.cumsum(probs)).max()
    assert gap <= eps, f"CDF gap {gap:.3g} exceeds the DKW bound {eps:.3g} at N = {n:.0f}, alpha = {alpha:g}"
    return eps


@pytest.fixture(scope="session")
def rapid32():
    return get_preset("rapid32")


@pytest.fixture(scope="session")
def mechanistic32(rapid32):
    """rapid32 with the mechanistic undershoot: a gate after a click misses with p 0.3."""
    detector = dataclasses.replace(rapid32.detector, undershoot=MechanisticUndershoot(0.3))
    return dataclasses.replace(rapid32, name="rapid32-mechanistic", detector=detector)


@pytest.fixture(scope="session")
def conventional16():
    return get_preset("conventional16")


@pytest.fixture(scope="session")
def rapid32_weights(rapid32):
    return rapid32.bin_weights()


@pytest.fixture(scope="session")
def simulate_in_chunks():
    """simulate_batch with `chunk` shots per chunk, set by patching mc_engine._CHUNK_LANES for the call."""

    def run(chunk, source, weights, detector, *args, **kwargs):
        lanes = mc_engine._Kernel(source, weights, detector).lanes
        with mock.patch.object(mc_engine, "_CHUNK_LANES", chunk * lanes):
            return mc_engine.simulate_batch(source, weights, detector, *args, **kwargs)

    return run


@pytest.fixture(scope="session")
def rapid32_matrix400(rapid32):
    """Exact response matrix on the standard mu grid; shared, read-only."""
    return build_matrix(rapid32, 400, "exact")


@pytest.fixture
def tiny_weights():
    """One loop, four bins, lossless: the smallest nontrivial network."""
    return build_bin_weights(MultiplexerSpec(loop_delays=(1e-9,), transmission=UniformLoss(0.0)))


@pytest.fixture
def ideal_detector():
    return DetectorSpec(efficiency=1.0, dark_prob_per_gate=(0.0, 0.0), gate_width=1e-9, deadtime=0.0)


@pytest.fixture
def lossy_small():
    """Two loops, eight bins, uneven darks; used for cross-checks."""
    weights = build_bin_weights(
        MultiplexerSpec(loop_delays=(1e-9, 2e-9), transmission=UniformLoss(0.8))
    )
    det = DetectorSpec(
        efficiency=0.4, dark_prob_per_gate=(0.01, 0.002), gate_width=1e-9, deadtime=0.0
    )
    return weights, det
