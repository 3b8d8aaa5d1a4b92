import dataclasses

import numpy as np
import pytest

from binflux import (
    DetectorSpec,
    MechanisticUndershoot,
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
    build_matrix,
    get_preset,
)


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
