import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binflux import (
    BinWeights,
    ConfigurationError,
    ExplicitTransmission,
    GlobalEfficiency,
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
    validate_timing,
)


def test_bin_count_doubles_per_loop():
    for m in range(1, 6):
        spec = MultiplexerSpec(loop_delays=tuple(2.0**i for i in range(m)))
        assert build_bin_weights(spec).num_bins == 2 ** (m + 1)


def test_balanced_lossless_weights_are_uniform(tiny_weights):
    assert np.allclose(tiny_weights.weights, 0.25)
    assert tiny_weights.weights.sum() == pytest.approx(1.0)


def test_arrival_times_sorted_and_interleaved():
    spec = MultiplexerSpec(loop_delays=(1e-9, 2e-9, 4e-9))
    w = build_bin_weights(spec)
    assert np.all(np.diff(w.arrival_times) >= 0)
    # With doubling delays each arrival time hosts one bin per detector.
    assert np.array_equal(w.detector_of_bin[::2], np.zeros(8, dtype=np.int64))
    assert np.array_equal(w.detector_of_bin[1::2], np.ones(8, dtype=np.int64))
    expected_times = np.repeat(np.arange(8) * 1e-9, 2)
    assert np.allclose(w.arrival_times, expected_times)


def test_uniform_loss_scales_weights():
    spec = MultiplexerSpec(loop_delays=(1e-9,), transmission=UniformLoss(avg_loss_db=3.0))
    w = build_bin_weights(spec)
    assert w.weights.sum() == pytest.approx(10 ** (-0.3))


def test_explicit_transmission_applies_per_sorted_bin():
    values = (1.0, 0.5, 0.25, 0.125)
    spec = MultiplexerSpec(loop_delays=(1e-9,), transmission=ExplicitTransmission(values))
    w = build_bin_weights(spec)
    assert np.allclose(w.weights, 0.25 * np.array(values))


def test_unbalanced_couplers():
    spec = MultiplexerSpec(loop_delays=(1e-9,), coupler_ratios=(0.3, 0.6))
    w = build_bin_weights(spec)
    # Paths sorted by (time, branch): straight/det0, straight/det1, loop/det0, loop/det1.
    assert np.allclose(w.weights, [0.7 * 0.4, 0.7 * 0.6, 0.3 * 0.4, 0.3 * 0.6])
    assert w.weights.sum() == pytest.approx(1.0)


def test_explicit_detector_assignment():
    spec = MultiplexerSpec(loop_delays=(1e-9,), detector_assignment=(0, 0, 1, 1))
    w = build_bin_weights(spec)
    assert np.array_equal(w.detector_of_bin, [0, 0, 1, 1])


@given(
    m=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_lossless_weights_conserve_probability(m, data):
    ratios = tuple(
        data.draw(st.floats(min_value=0.01, max_value=0.99), label=f"ratio{i}")
        for i in range(m + 1)
    )
    spec = MultiplexerSpec(loop_delays=tuple(float(2**i) for i in range(m)), coupler_ratios=ratios)
    w = build_bin_weights(spec)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w.weights > 0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(loop_delays=()), "loop_delays"),
        (dict(loop_delays=(-1e-9,)), "loop_delays[0]"),
        (dict(loop_delays=(1e-9,), coupler_ratios=(0.5,)), "coupler_ratios"),
        (dict(loop_delays=(1e-9,), coupler_ratios=(0.0, 0.5)), "coupler_ratios[0]"),
        (dict(loop_delays=(1e-9,), coupler_ratios=(0.5, 1.0)), "coupler_ratios[1]"),
        (dict(loop_delays=(1e-9,), transmission=UniformLoss(-0.1)), "avg_loss_db"),
        (dict(loop_delays=(1e-9,), transmission=ExplicitTransmission((1.0, 1.0))), "transmission.values"),
        (dict(loop_delays=(1e-9,), transmission=ExplicitTransmission((1.0, 0.5, 0.0, 0.5))), "values[2]"),
        (dict(loop_delays=(1e-9,), detector_assignment="roundrobin"), "detector_assignment"),
        (dict(loop_delays=(1e-9,), detector_assignment=(0, 0, 0, 1)), "detector_assignment"),
    ],
)
def test_validation_names_offending_field(kwargs, field):
    with pytest.raises(ConfigurationError, match=field.replace("[", "\\[").replace("]", "\\]")):
        build_bin_weights(MultiplexerSpec(**kwargs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(transmission=0.9), "transmission: unsupported type float"),
        (dict(detector_assignment="roundrobin"), "detector_assignment: unknown mode 'roundrobin'"),
        (dict(detector_assignment=(0, 0, 0, 1)), "detector_assignment: each detector must watch exactly 2 bins"),
        (dict(detector_assignment=(0, 1)), "detector_assignment: expected 4 entries, got 2"),
        (dict(detector_assignment=(0, 1, 0.0, 1)), "detector_assignment[2] must be an integer in [0, 1], got 0.0"),
        # Before, True passed as 1 and a string escaped as Python's own TypeError.
        (dict(loop_delays=(True,)), "loop_delays[0] must be a real number in (0, inf), got True"),
        (dict(coupler_ratios=(0.5, "0.5")), "coupler_ratios[1] must be a real number in (0, 1), got '0.5'"),
        (dict(transmission=UniformLoss(math.nan)), "transmission.avg_loss_db must be a real number in [0, inf), got nan"),
        (
            dict(transmission=ExplicitTransmission((1.0, 1.0, None, 1.0))),
            "transmission.values[2] must be a real number in (0, 1], got None",
        ),
    ],
    ids=[
        "transmission-type", "assignment-mode", "assignment-split", "assignment-length", "assignment-float",
        "delay-true", "ratio-str", "loss-nan", "value-none",
    ],
)
def test_a_bad_spec_gets_the_whole_message(kwargs, message):
    with pytest.raises(ConfigurationError) as exc:
        MultiplexerSpec(**{"loop_delays": (1e-9,), **kwargs})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiplexerSpec(loop_delays=None), "loop_delays: expected a sequence, got None"),
        (lambda: MultiplexerSpec(loop_delays="1e-9"), "loop_delays: expected a sequence, got '1e-9'"),
        (lambda: MultiplexerSpec(loop_delays=(1e-9,), coupler_ratios=5), "coupler_ratios: expected a sequence, got 5"),
        (
            lambda: MultiplexerSpec(loop_delays=(1e-9,), transmission=ExplicitTransmission(None)),
            "transmission.values: expected a sequence, got None",
        ),
        (
            lambda: MultiplexerSpec(loop_delays=(1e-9,), detector_assignment=7),
            "detector_assignment: expected a sequence, got 7",
        ),
        (lambda: GlobalEfficiency(points=None), "undershoot.points: expected a sequence, got None"),
    ],
    ids=["delays-none", "delays-str", "ratios-int", "values-none", "assignment-int", "points-none"],
)
def test_a_non_sequence_field_gets_the_whole_message(build, message):
    # Before, each escaped from len() as Python's own TypeError.
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert str(exc.value) == message


def test_a_spec_stores_its_numbers_as_floats_and_ints():
    spec = MultiplexerSpec(
        loop_delays=(1, np.float32(2.0)),
        coupler_ratios=(np.float64(0.5), 0.25, 0.5),
        transmission=ExplicitTransmission((1,) * 8),
        detector_assignment=(np.int64(0), 1) * 4,
    )
    assert spec.loop_delays == (1.0, 2.0) and spec.coupler_ratios == (0.5, 0.25, 0.5)
    for values, kind in ((spec.loop_delays + spec.coupler_ratios + spec.transmission.values, float),
                         (spec.detector_assignment, int)):
        assert all(type(v) is kind for v in values)
    assert type(MultiplexerSpec(loop_delays=(1.0,), transmission=UniformLoss(1)).transmission.avg_loss_db) is float


# (array to replace, its replacement made from the 32-bin array, start of the ValueError message)
BAD_BIN_TABLES = {
    "weights-2d": ("weights", lambda a: a.reshape(4, 8), "BinWeights: weights, arrival_times and detector_of_bin"),
    "short-times": ("arrival_times", lambda a: a[:-1], "BinWeights: weights, arrival_times and detector_of_bin"),
    "sum-6.4": ("weights", lambda a: np.full(32, 0.2), "BinWeights.weights: must be finite"),
    "negative": ("weights", lambda a: np.where(np.arange(32) == 3, -1e-3, a), "BinWeights.weights: must be finite"),
    "nan": ("weights", lambda a: np.where(np.arange(32) == 3, np.nan, a), "BinWeights.weights: must be finite"),
    "inf": ("weights", lambda a: np.where(np.arange(32) == 3, np.inf, a), "BinWeights.weights: must be finite"),
    "times-decrease": ("arrival_times", lambda a: a[::-1], "BinWeights.arrival_times: must not decrease"),
    "detector-2": ("detector_of_bin", lambda a: np.where(np.arange(32) == 5, 2, a), "BinWeights.detector_of_bin"),
    # Float or bool entries cannot index the per-detector dark probabilities.
    "detector-float": ("detector_of_bin", lambda a: a.astype(float), "BinWeights.detector_of_bin"),
    "detector-bool": ("detector_of_bin", lambda a: a.astype(bool), "BinWeights.detector_of_bin"),
}


@pytest.mark.parametrize("name", sorted(BAD_BIN_TABLES))
def test_bin_weights_check_themselves_when_built(name):
    field, bad, message = BAD_BIN_TABLES[name]
    w = build_bin_weights(MultiplexerSpec(loop_delays=(1.0, 2.0, 4.0, 8.0)))
    arrays = {"weights": w.weights, "arrival_times": w.arrival_times, "detector_of_bin": w.detector_of_bin}
    BinWeights(**{k: np.array(a) for k, a in arrays.items()})  # the copies themselves are a valid table
    arrays[field] = bad(np.array(arrays[field]))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        BinWeights(**arrays)


def test_timing_report_basic():
    spec = MultiplexerSpec(loop_delays=(1e-9, 2e-9, 4e-9))
    w = build_bin_weights(spec)
    report = validate_timing(w, deadtime=1e-9)
    assert report.min_spacing == pytest.approx(1e-9, rel=1e-12, abs=0)
    assert report.train_length == pytest.approx(8e-9, rel=1e-12, abs=0)  # 7 ns span + 1 ns guard
    assert report.max_rep_rate == pytest.approx(1.25e8)
    assert report.deadtime_ok


def test_timing_flags_deadtime_violation():
    spec = MultiplexerSpec(loop_delays=(1e-9, 2e-9, 4e-9))
    w = build_bin_weights(spec)
    assert not validate_timing(w, deadtime=1.5e-9).deadtime_ok


def test_timing_equal_spacing_counts_as_ok():
    spec = MultiplexerSpec(loop_delays=(9.78e-9, 19.56e-9))
    w = build_bin_weights(spec)
    assert validate_timing(w, deadtime=9.78e-9).deadtime_ok


def test_timing_guard_overrides_deadtime():
    spec = MultiplexerSpec(loop_delays=(1e-9,))
    w = build_bin_weights(spec)
    report = validate_timing(w, deadtime=1e-9, guard=5e-9)
    assert report.train_length == pytest.approx(6e-9, rel=1e-12, abs=0)


@pytest.mark.parametrize("value", [-1e-9, math.nan, math.inf])
def test_timing_rejects_negative_or_non_finite_times(value):
    w = build_bin_weights(MultiplexerSpec(loop_delays=(1e-9,)))
    with pytest.raises(ValueError, match=f"^{re.escape(f'guard must be a real number in [0, inf), got {value!r}')}$"):
        validate_timing(w, deadtime=1e-9, guard=value)
    # The guard defaults to the deadtime; the message names the field given.
    with pytest.raises(ValueError, match=f"^{re.escape(f'deadtime must be a real number in [0, inf), got {value!r}')}$"):
        validate_timing(w, deadtime=value)


def test_colliding_delays_violate_spacing():
    # 1 + 2 = 3 puts two bins of the same detector at the same time.
    spec = MultiplexerSpec(loop_delays=(1e-9, 2e-9, 3e-9))
    w = build_bin_weights(spec)
    report = validate_timing(w, deadtime=1e-10)
    assert report.min_spacing < 1e-12  # coincident up to float rounding
    assert not report.deadtime_ok
