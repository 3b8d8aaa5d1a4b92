"""One rule for every real argument, model field and config value (errors._real).

A bool, a string (one that spells a number too), a list, NaN or a value on the
wrong side of a bound raises ValueError for a function argument and
ConfigurationError for a model field, with one message that names the
parameter and its interval. A value inside is stored and used as its float,
so an int or a numpy scalar gives a result bit-identical to the float of
the same value.
"""

import dataclasses
import functools
import math
import pickle
import re

import numpy as np
import pytest

from binflux import (
    Coherent,
    ConfigurationError,
    ExplicitTransmission,
    GlobalEfficiency,
    MechanisticUndershoot,
    MultiplexerSpec,
    Posterior,
    UniformLoss,
    attenuation_for_target,
    baseline_error_curve,
    build_matrix,
    credible_interval,
    get_preset,
    interval_to_energy,
    relative_error_curve,
    relative_error_factor,
    shots_to_relative_error,
    simulate_baseline,
    stability_max_n,
    validate_timing,
)

RAPID32 = get_preset("rapid32")
POSTERIOR = Posterior(probs=np.array([0.1, 0.6, 0.3]), log_evidence=0.0)


@functools.cache
def _matrix():
    return build_matrix(RAPID32, 20)


def _curve(mu_true=5.0, level=0.9):
    return relative_error_curve(RAPID32, _matrix(), mu_true, 5, 2, 1, level=level)


def _timing(deadtime=9.78e-9, guard=None):
    return validate_timing(RAPID32.bin_weights(), deadtime, guard)


def _detector(**fields):
    return dataclasses.replace(RAPID32.detector, **fields)


def _mux(**fields):
    return MultiplexerSpec(**{"loop_delays": (1e-9,), **fields})


INF = math.inf

# Name as the message gives it, lo, hi, brackets, the error type, a valid value, and the call it enters.
ENTRIES = [
    pytest.param("Coherent.mu", 0, INF, "[)", ValueError, 5.0, Coherent, id="coherent-mu"),
    pytest.param("p_target", 0, 1, "()", ValueError, 0.5, lambda v: attenuation_for_target(100.0, 0.165, v),
                 id="attenuation-p-target"),
    pytest.param("mu", 0, INF, "()", ValueError, 100.0, lambda v: attenuation_for_target(v, 0.165),
                 id="attenuation-mu"),
    pytest.param("efficiency", 0, 1, "(]", ValueError, 0.165, lambda v: attenuation_for_target(100.0, v),
                 id="attenuation-efficiency"),
    pytest.param("p", 0, 1, "()", ValueError, 0.5, relative_error_factor, id="error-factor-p"),
    pytest.param("target", 0, INF, "()", ValueError, 0.1, shots_to_relative_error, id="shots-target"),
    pytest.param("mu_true", 4, INF, "()", ValueError, 100.0, lambda v: baseline_error_curve(v, 5),
                 id="baseline-curve-mu"),
    pytest.param("mu_true", 4, INF, "()", ValueError, 100.0, lambda v: simulate_baseline(v, 0.165, 5, 2, 1),
                 id="baseline-mu"),
    pytest.param("level", 0, 1, "()", ValueError, 0.9, lambda v: credible_interval(POSTERIOR, v), id="interval-level"),
    pytest.param("level", 0, 1, "()", ValueError, 0.9, lambda v: _curve(level=v), id="curve-level"),
    pytest.param("mu_true", 0, INF, "()", ValueError, 5.0, _curve, id="curve-mu"),
    pytest.param("width_photons", 0, INF, "[)", ValueError, 33.0, interval_to_energy, id="energy-width"),
    pytest.param("wavelength", 0, INF, "()", ValueError, 1.55e-6, lambda v: interval_to_energy(1, v),
                 id="energy-wavelength"),
    pytest.param("tolerance", 0, INF, "()", ValueError, 0.01, lambda v: stability_max_n(RAPID32, 5, v),
                 id="stability-tolerance"),
    pytest.param("deadtime", 0, INF, "[)", ValueError, 9.78e-9, _timing, id="timing-deadtime"),
    pytest.param("guard", 0, INF, "[)", ValueError, 1e-9, lambda v: _timing(guard=v), id="timing-guard"),
    # Model fields.
    pytest.param("efficiency", 0, 1, "(]", ConfigurationError, 0.165, lambda v: _detector(efficiency=v),
                 id="detector-efficiency"),
    pytest.param("dark_prob_per_gate[1]", 0, 1, "[)", ConfigurationError, 5e-5,
                 lambda v: _detector(dark_prob_per_gate=(1e-5, v)), id="detector-dark"),
    pytest.param("gate_width", 0, INF, "()", ConfigurationError, 2e-10, lambda v: _detector(gate_width=v),
                 id="detector-gate-width"),
    pytest.param("deadtime", 0, INF, "[)", ConfigurationError, 9.78e-9, lambda v: _detector(deadtime=v),
                 id="detector-deadtime"),
    pytest.param("afterpulse_metadata.a", -INF, INF, "()", ConfigurationError, 0.01,
                 lambda v: _detector(afterpulse_metadata=(("a", v),)), id="detector-afterpulse"),
    pytest.param("undershoot.p_miss_next", 0, 1, "[]", ConfigurationError, 0.3, MechanisticUndershoot,
                 id="mechanistic-p-miss"),
    pytest.param("undershoot.points[0].mu", 0, INF, "[)", ConfigurationError, 10.0,
                 lambda v: GlobalEfficiency(((v, 0.165),)), id="global-mu"),
    pytest.param("undershoot.points[0].eta", 0, 1, "(]", ConfigurationError, 0.165,
                 lambda v: GlobalEfficiency(((10.0, v),)), id="global-eta"),
    pytest.param("guard", 0, INF, "[)", ConfigurationError, 1e-9, lambda v: dataclasses.replace(RAPID32, guard=v),
                 id="system-guard"),
    pytest.param("loop_delays[0]", 0, INF, "()", ConfigurationError, 1e-9, lambda v: _mux(loop_delays=(v,)),
                 id="mux-delay"),
    pytest.param("coupler_ratios[1]", 0, 1, "()", ConfigurationError, 0.5, lambda v: _mux(coupler_ratios=(0.5, v)),
                 id="mux-ratio"),
    pytest.param("transmission.avg_loss_db", 0, INF, "[)", ConfigurationError, 1.35,
                 lambda v: _mux(transmission=UniformLoss(v)), id="mux-loss"),
    pytest.param("transmission.values[3]", 0, 1, "(]", ConfigurationError, 0.9,
                 lambda v: _mux(transmission=ExplicitTransmission((1.0, 1.0, 1.0, v))), id="mux-values"),
]


def _bad_values(lo, hi, brackets, good):
    """Values the rule refuses: a bool, the valid value as a string and in a list, NaN, and one past each end."""
    below = lo if brackets[0] == "(" else math.nextafter(lo, -INF)
    above = hi if brackets[1] == ")" else math.nextafter(hi, INF)
    return {"True": True, "string": str(good), "list": [good], "nan": math.nan, "below": below, "above": above}


@pytest.mark.parametrize("name, lo, hi, brackets, error, good, call", ENTRIES)
@pytest.mark.parametrize("kind", ["True", "string", "list", "nan", "below", "above"])
def test_a_bad_real_names_its_parameter_and_interval(name, lo, hi, brackets, error, good, call, kind):
    value = _bad_values(lo, hi, brackets, good)[kind]
    message = f"{name} must be a real number in {brackets[0]}{lo:g}, {hi:g}{brackets[1]}, got {value!r}"
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("name, lo, hi, brackets, error, good, call", ENTRIES)
@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_an_int_too_large_for_a_double_is_refused(name, lo, hi, brackets, error, good, call, sign):
    # Before, 10**400 passed a bound of inf and escaped from float() as Python's own OverflowError.
    value = sign * 10**400
    message = f"{name} must be a real number in {brackets[0]}{lo:g}, {hi:g}{brackets[1]}, got {value!r}"
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("name, lo, hi, brackets, error, good, call", ENTRIES)
@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_an_int_too_long_to_print_is_refused_by_its_digit_count(name, lo, hi, brackets, error, good, call, sign):
    # repr itself raises ValueError past Python's 4300-digit limit, so the refusal used to escape as that.
    message = f"{name} must be a real number in {brackets[0]}{lo:g}, {hi:g}{brackets[1]}, got an int of 5001 digits"
    with pytest.raises(error) as exc:
        call(sign * 10**5000)
    assert type(exc.value) is error and str(exc.value) == message


def test_a_sequence_field_names_an_int_too_long_to_print_by_its_digit_count():
    with pytest.raises(ConfigurationError) as exc:
        _mux(loop_delays=10**5000)
    assert str(exc.value) == "loop_delays: expected a sequence, got an int of 5001 digits"


@pytest.mark.parametrize("name, lo, hi, brackets, error, good, call", ENTRIES)
def test_a_closed_end_is_inside(name, lo, hi, brackets, error, good, call):
    for end, bracket in ((lo, brackets[0]), (hi, brackets[1])):
        if bracket in "[]":
            call(end)


@pytest.mark.parametrize("name, lo, hi, brackets, error, good, call", ENTRIES)
def test_an_int_or_numpy_real_gives_the_result_of_its_float(name, lo, hi, brackets, error, good, call):
    want = pickle.dumps(call(good))
    spellings = [np.float64(good), *([np.float32(good)] if float(np.float32(good)) == good else [])]
    if good == int(good):
        spellings += [int(good), np.int64(good)]
    for value in spellings:
        assert pickle.dumps(call(value)) == want, value


def test_the_rule_refuses_what_float_accepts():
    # Before, True passed as 1 and a string that spells a number escaped as Python's own TypeError.
    for call, message in [
        (lambda: Coherent(True), "Coherent.mu must be a real number in [0, inf), got True"),
        (lambda: Coherent("5"), "Coherent.mu must be a real number in [0, inf), got '5'"),
        (lambda: credible_interval(POSTERIOR, "0.9"), "level must be a real number in (0, 1), got '0.9'"),
        (lambda: stability_max_n(RAPID32, 5, tolerance=True), "tolerance must be a real number in (0, inf), got True"),
        (lambda: _curve(mu_true=True), "mu_true must be a real number in (0, inf), got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
