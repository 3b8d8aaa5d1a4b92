import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binflux import (
    BinWeights,
    ConfigurationError,
    DetectorSpec,
    GlobalEfficiency,
    MechanisticUndershoot,
    coherent_click_distribution,
    effective_efficiency,
    fock_click_distribution,
    get_preset,
    no_click_probabilities,
    per_bin_dark_probabilities,
    shot_dark_probability,
)
from binflux.exact_oracle import coherent_click_rows


def make_detector(**overrides):
    base = dict(
        efficiency=0.165,
        dark_prob_per_gate=(1e-5, 5e-5),
        gate_width=2e-10,
        deadtime=9.78e-9,
    )
    base.update(overrides)
    return DetectorSpec(**base)


def click_probability(photons_in_bin, efficiency, dark_prob):
    """Click probability of one gate that receives every photon of a Fock pulse."""
    one_gate = BinWeights(np.array([1.0]), np.array([0.0]), np.array([0]))
    det = make_detector(efficiency=efficiency, dark_prob_per_gate=(dark_prob, dark_prob))
    return fock_click_distribution(photons_in_bin, one_gate, det).probs[1]


def test_click_probability_zero_photons_is_dark_only():
    assert click_probability(0, 0.165, 1e-5) == pytest.approx(1e-5)
    assert click_probability(0, 0.165, 0.0) == 0.0


def test_click_probability_formula():
    # 1 - (1 - dark) * (1 - eta)**k, frozen from direct evaluation.
    assert click_probability(3, 0.165, 1e-5) == pytest.approx(0.4178229468287501, rel=1e-12, abs=0)
    assert click_probability(1, 0.5, 0.0) == pytest.approx(0.5)
    assert click_probability(2, 0.5, 0.1) == pytest.approx(1 - 0.9 * 0.25)


def test_click_probability_saturates():
    assert click_probability(1000, 0.165, 1e-5) == pytest.approx(1.0)


@given(
    k=st.integers(min_value=0, max_value=200),
    eta=st.floats(min_value=0.01, max_value=0.99),
    dark=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_click_probability_monotone_and_bounded(k, eta, dark):
    p = click_probability(k, eta, dark)
    assert 0.0 <= p <= 1.0
    assert click_probability(k + 1, eta, dark) >= p
    assert p >= click_probability(k, eta, 0.0)


def test_click_probability_rejects_negative_photons():
    with pytest.raises(ValueError):
        click_probability(-1, 0.1, 0.0)


def test_effective_efficiency_without_undershoot():
    det = make_detector()
    assert effective_efficiency(det, 0.0) == 0.165
    assert effective_efficiency(det, 1000.0) == 0.165


def test_effective_efficiency_mechanistic_does_not_derate():
    det = make_detector(undershoot=MechanisticUndershoot(0.3))
    assert effective_efficiency(det, 400.0) == 0.165


def test_global_efficiency_interpolates_and_clamps():
    det = make_detector(undershoot=GlobalEfficiency(points=((10.0, 0.165), (400.0, 0.145))))
    assert effective_efficiency(det, 10.0) == pytest.approx(0.165)
    assert effective_efficiency(det, 400.0) == pytest.approx(0.145)
    assert effective_efficiency(det, 205.0) == pytest.approx(0.155)
    # Clamped outside the anchor range.
    assert effective_efficiency(det, 1.0) == pytest.approx(0.165)
    assert effective_efficiency(det, 4000.0) == pytest.approx(0.145)


def test_effective_efficiency_rejects_negative_mu():
    with pytest.raises(ValueError):
        effective_efficiency(make_detector(), -1.0)


@pytest.mark.parametrize(
    "undershoot",
    [None, GlobalEfficiency(points=((10.0, 0.165), (400.0, 0.145))), MechanisticUndershoot(0.3)],
    ids=["none", "global", "mechanistic"],
)
@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, np.array([5.0, math.nan])], ids=repr)
def test_effective_efficiency_rejects_a_non_finite_mean(undershoot, mu):
    # Before, nan gave nan under the global derating and inf its last anchor, 0.145.
    with pytest.raises(ValueError, match=r"^mean_photon_number must be finite and >= 0, got "):
        effective_efficiency(make_detector(undershoot=undershoot), mu)


def test_no_click_probabilities_reject_a_non_finite_mean(conventional16):
    # Before, a nan mean gave nan probabilities, and then a message ending in array(nan).
    with pytest.raises(ValueError, match=r"^mean_photon_number must be finite and >= 0, got nan$"):
        no_click_probabilities(math.nan, conventional16.bin_weights(), conventional16.detector)


@pytest.mark.parametrize("name", ["rapid32", "conventional16"])
@pytest.mark.parametrize(
    "mean, shown", [(10**400, str(10**400)), ([5, 10**400], f"[5, {10**400}]"), (10**5000, "an int of 5001 digits")],
    ids=["int", "list", "long-int"],
)
def test_a_mean_past_the_largest_double_is_refused(name, mean, shown):
    # Before, each raised OverflowError (int too large to convert to float), or with
    # conventional16's constant efficiency effective_efficiency returned 0.1.
    system = get_preset(name)
    weights, detector = system.bin_weights(), system.detector
    calls = [
        lambda: effective_efficiency(detector, mean),
        lambda: no_click_probabilities(mean, weights, detector),
        lambda: coherent_click_rows(mean, weights, detector),
    ]
    if not isinstance(mean, list):
        calls.append(lambda: coherent_click_distribution(mean, weights, detector))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"mean_photon_number must be finite and >= 0, got {shown}"


def test_per_bin_dark_lookup(tiny_weights):
    det = make_detector(dark_prob_per_gate=(0.01, 0.02))
    darks = per_bin_dark_probabilities(tiny_weights, det)
    assert np.allclose(darks, np.where(tiny_weights.detector_of_bin == 0, 0.01, 0.02))


def test_shot_dark_probability_rapid32():
    det = make_detector()
    # 16 gates per detector at 1e-5 and 5e-5 per gate.
    got = shot_dark_probability(det, 16)
    assert got == pytest.approx(0.0009595601281325861, rel=1e-12, abs=0)
    expected = 1 - (1 - 1e-5) ** 16 * (1 - 5e-5) ** 16
    assert got == pytest.approx(expected, rel=1e-15, abs=0)


def test_shot_dark_probability_zero_bins():
    assert shot_dark_probability(make_detector(), 0) == 0.0


def test_history_dependence_flag():
    assert not make_detector().history_dependent
    assert not make_detector(undershoot=GlobalEfficiency(points=((1.0, 0.1),))).history_dependent
    assert not make_detector(undershoot=MechanisticUndershoot(0.0)).history_dependent
    assert make_detector(undershoot=MechanisticUndershoot(0.2)).history_dependent


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(efficiency=0.0), "efficiency"),
        (dict(efficiency=1.2), "efficiency"),
        (dict(dark_prob_per_gate=(0.1,)), "dark_prob_per_gate"),
        (dict(dark_prob_per_gate=(0.1, 1.0)), "dark_prob_per_gate\\[1\\]"),
        (dict(gate_width=0.0), "gate_width"),
        (dict(deadtime=-1.0), "deadtime"),
        # An invalid undershoot raises as soon as it is built, so these are built inside the test.
        (dict(undershoot=lambda: MechanisticUndershoot(1.5)), "p_miss_next"),
        (dict(undershoot=lambda: GlobalEfficiency(points=())), "points"),
        (dict(undershoot=lambda: GlobalEfficiency(points=((5.0, 0.1), (2.0, 0.2)))), "increasing"),
        (dict(undershoot=lambda: GlobalEfficiency(points=((5.0, 0.0),))), "eta"),
    ],
)
def test_detector_validation(overrides, field):
    with pytest.raises(ConfigurationError, match=field):
        make_detector(**{k: v() if callable(v) else v for k, v in overrides.items()})


RAPID32 = get_preset("rapid32")


@pytest.mark.parametrize(
    "build, message",
    [
        # Unchecked, the exact oracle turns these two detectors into negative "probabilities".
        (
            lambda: dataclasses.replace(RAPID32.detector, dark_prob_per_gate=(1.5, -0.2)),
            "dark_prob_per_gate[0] must be a real number in [0, 1), got 1.5",
        ),
        (
            lambda: dataclasses.replace(RAPID32.detector, undershoot=MechanisticUndershoot(1.7)),
            "undershoot.p_miss_next must be a real number in [0, 1], got 1.7",
        ),
        # A dict is not an undershoot model; unchecked, it would act as no undershoot at all.
        (
            lambda: dataclasses.replace(RAPID32.detector, undershoot={"kind": "mechanistic", "p_miss_next": 0.3}),
            "undershoot: unsupported type dict",
        ),
        (
            lambda: dataclasses.replace(RAPID32.detector.undershoot, points=()),
            "undershoot.points: need at least one anchor",
        ),
        (
            lambda: dataclasses.replace(RAPID32.multiplexer, coupler_ratios=(0.5, 0.5)),
            "coupler_ratios: expected 5 entries (one per loop stage plus the output coupler), got 2",
        ),
        (lambda: dataclasses.replace(RAPID32, guard=-1.0), "guard must be a real number in [0, inf), got -1.0"),
        # Malformed fields of a spec built in code name the field instead of escaping as Python's own errors.
        (
            lambda: GlobalEfficiency(points=((1.0, 0.1, 5.0),)),
            "undershoot.points[0]: expected a (mu, eta) pair, got (1.0, 0.1, 5.0)",
        ),
        (
            lambda: GlobalEfficiency(points=(("a", 0.5),)),
            "undershoot.points[0].mu must be a real number in [0, inf), got 'a'",
        ),
        (
            lambda: DetectorSpec(0.1, (0.0, 0.0), 1e-9, 0.0, afterpulse_metadata=(("a", "x"),)),
            "afterpulse_metadata.a must be a real number in (-inf, inf), got 'x'",
        ),
        (
            lambda: DetectorSpec(0.1, (0.0, 0.0), 1e-9, 0.0, afterpulse_metadata=(("a",),)),
            "afterpulse_metadata[0]: expected a (name, value) pair, got ('a',)",
        ),
        (
            lambda: dataclasses.replace(RAPID32.detector, dark_prob_per_gate=None),
            "dark_prob_per_gate: expected a (detector 0, detector 1) pair, got None",
        ),
        (
            lambda: GlobalEfficiency(points=((10.0, 0.2), (math.nan, 0.1))),
            "undershoot.points[1].mu must be a real number in [0, inf), got nan",
        ),
        (
            lambda: GlobalEfficiency(points=((10.0, 0.2), (10.0, 0.1))),
            "undershoot.points: mu anchors must be strictly increasing",
        ),
        # Before, True passed as 1, and None and "0.5" escaped as Python's own TypeError.
        (
            lambda: dataclasses.replace(RAPID32.detector, efficiency=True),
            "efficiency must be a real number in (0, 1], got True",
        ),
        (lambda: MechanisticUndershoot(True), "undershoot.p_miss_next must be a real number in [0, 1], got True"),
        (
            lambda: dataclasses.replace(RAPID32.detector, gate_width=None),
            "gate_width must be a real number in (0, inf), got None",
        ),
        (
            lambda: dataclasses.replace(RAPID32.detector, deadtime="9.78e-9"),
            "deadtime must be a real number in [0, inf), got '9.78e-9'",
        ),
        (
            lambda: GlobalEfficiency(points=((10.0, "0.5"),)),
            "undershoot.points[0].eta must be a real number in (0, 1], got '0.5'",
        ),
        # An int past Python's 4300-digit int-to-str limit once escaped as repr's own ValueError.
        (
            lambda: DetectorSpec(0.1, 10**5000, 1e-9, 0.0),
            "dark_prob_per_gate: expected a (detector 0, detector 1) pair, got an int of 5001 digits",
        ),
        (
            lambda: GlobalEfficiency((10**5000,)),
            "undershoot.points[0]: expected a (mu, eta) pair, got an int of 5001 digits",
        ),
    ],
    ids=[
        "dark-1.5", "p-miss-1.7", "undershoot-dict", "no-anchor", "coupler-ratios", "guard",
        "point-triple", "point-str", "afterpulse-str", "afterpulse-single", "darks-none", "point-nan",
        "point-repeated", "efficiency-true", "p-miss-true", "gate-width-none", "deadtime-str", "eta-str",
        "darks-long-int", "point-long-int",
    ],
)
def test_a_spec_checks_itself_when_built(build, message):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert str(exc.value) == message
