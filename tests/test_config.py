import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from binflux import (
    ConfigurationError,
    DetectorSpec,
    ExplicitTransmission,
    GlobalEfficiency,
    MechanisticUndershoot,
    MultiplexerSpec,
    SystemConfig,
    UniformLoss,
    build_matrix,
    canonical_json,
    fingerprint,
    get_preset,
    load_matrix,
    load_system,
    save_matrix,
    save_system,
    system_from_dict,
    system_to_dict,
)
from binflux.cli import main


def _explicit_system():
    return SystemConfig(
        name="explicit",
        multiplexer=MultiplexerSpec(
            loop_delays=(1e-8, 2e-8),
            coupler_ratios=(0.4, 0.6, 0.5),
            transmission=ExplicitTransmission(tuple(0.9 - 0.05 * b for b in range(8))),
            detector_assignment=(0, 1, 0, 1, 1, 0, 1, 0),
        ),
        detector=DetectorSpec(
            efficiency=0.3,
            dark_prob_per_gate=(1e-5, 2e-5),
            gate_width=1e-9,
            deadtime=5e-9,
            undershoot=MechanisticUndershoot(0.02),
            afterpulse_metadata=(("amplitude", 0.008), ("tau_us", 1.2)),
        ),
        guard=1e-9,
    )


@pytest.mark.parametrize("name", ["rapid32", "conventional16"])
def test_preset_round_trip(name):
    system = get_preset(name)
    assert system_from_dict(system_to_dict(system)) == system


def test_explicit_round_trip():
    system = _explicit_system()
    assert system_from_dict(system_to_dict(system)) == system


def test_global_efficiency_round_trip():
    system = get_preset("rapid32")
    assert isinstance(system.detector.undershoot, GlobalEfficiency)
    back = system_from_dict(system_to_dict(system))
    assert back.detector.undershoot == system.detector.undershoot


def test_fingerprint_is_stable():
    a = fingerprint(get_preset("rapid32"))
    b = fingerprint(get_preset("rapid32"))
    assert a == b
    assert len(a) == 64
    assert set(a) <= set("0123456789abcdef")


def test_fingerprint_sensitive_to_any_field():
    base = get_preset("rapid32")
    bumped = dataclasses.replace(
        base, detector=dataclasses.replace(base.detector, efficiency=0.166)
    )
    assert fingerprint(bumped) != fingerprint(base)
    renamed = dataclasses.replace(base, name="rapid32b")
    assert fingerprint(renamed) != fingerprint(base)


def _tiny(mux=None, guard=None, **detector):
    """A four-bin system; keyword arguments replace fields of its detector."""
    return SystemConfig(
        name="tiny",
        multiplexer=mux or MultiplexerSpec(loop_delays=(1e-9,)),
        detector=DetectorSpec(
            **{"efficiency": 0.5, "dark_prob_per_gate": (0.0, 0.0), "gate_width": 1e-9, "deadtime": 0.0, **detector}
        ),
        guard=guard,
    )


def _assert_round_trip(system, tmp_path):
    """save_matrix then load_matrix, both formats, gives the system back with no warning."""
    matrix = build_matrix(system, 5)
    for suffix in (".csv", ".json"):
        path = tmp_path / f"matrix{suffix}"
        save_matrix(matrix, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_matrix(path)
        assert loaded.system == system and loaded.fingerprint == matrix.fingerprint


# Each pair compares equal; the first spells a value as an int or a numpy scalar.
EQUAL_SYSTEMS = [
    pytest.param(_tiny(deadtime=0), _tiny(deadtime=0.0), id="deadtime-0"),
    pytest.param(_tiny(efficiency=1, dark_prob_per_gate=(0, np.float32(0.5))),
                 _tiny(efficiency=1.0, dark_prob_per_gate=(0.0, 0.5)), id="efficiency-and-darks"),
    pytest.param(_tiny(gate_width=np.float64(1e-9), afterpulse_metadata=(("a", 2),)),
                 _tiny(gate_width=1e-9, afterpulse_metadata=(("a", 2.0),)), id="gate-and-afterpulse"),
    pytest.param(_tiny(undershoot=MechanisticUndershoot(0)), _tiny(undershoot=MechanisticUndershoot(0.0)),
                 id="mechanistic"),
    pytest.param(_tiny(undershoot=GlobalEfficiency(((0, 1), (np.int64(4), 0.5)))),
                 _tiny(undershoot=GlobalEfficiency(((0.0, 1.0), (4.0, 0.5)))), id="global-points"),
    pytest.param(_tiny(MultiplexerSpec(loop_delays=(1,), transmission=UniformLoss(0)), guard=0),
                 _tiny(MultiplexerSpec(loop_delays=(1.0,), transmission=UniformLoss(0.0)), guard=0.0),
                 id="delays-loss-guard"),
    pytest.param(_tiny(MultiplexerSpec(loop_delays=(1e-9,), transmission=ExplicitTransmission((1, 1, 1, 1)))),
                 _tiny(MultiplexerSpec(loop_delays=(1e-9,), transmission=ExplicitTransmission((1.0,) * 4))),
                 id="explicit-transmission"),
]


@pytest.mark.parametrize("whole, real", EQUAL_SYSTEMS)
def test_equal_systems_share_a_fingerprint(tmp_path, whole, real):
    # Before, deadtime=0 serialised as 0 and deadtime=0.0 as 0.0: equal systems, two fingerprints,
    # and a matrix saved from the first warned of a fingerprint mismatch when it loaded.
    assert whole == real
    assert canonical_json(whole) == canonical_json(real) and fingerprint(whole) == fingerprint(real)
    _assert_round_trip(whole, tmp_path)


def test_an_explicit_detector_assignment_saves_and_loads_back(tmp_path):
    # Before, (False, 1.0, 0, 1) was accepted and saved, and load_matrix refused the file it had written.
    with pytest.raises(ConfigurationError) as exc:
        MultiplexerSpec(loop_delays=(1e-9,), detector_assignment=(False, 1.0, 0, 1))
    assert str(exc.value) == "detector_assignment[0] must be an integer in [0, 1], got False"
    mux = MultiplexerSpec(loop_delays=(1e-9,), detector_assignment=(np.int64(0), np.int64(1), 0, 1))
    assert mux.detector_assignment == (0, 1, 0, 1) and all(type(v) is int for v in mux.detector_assignment)
    _assert_round_trip(_tiny(mux), tmp_path)


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json(get_preset("conventional16"))
    assert ": " not in text and ", " not in text
    assert text.index('"detector"') < text.index('"multiplexer"') < text.index('"name"')


def test_save_load_file_round_trip(tmp_path):
    system = _explicit_system()
    path = tmp_path / "system.json"
    save_system(system, path)
    assert load_system(path) == system
    assert fingerprint(load_system(path)) == fingerprint(system)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_system(path)


def test_from_dict_rejects_non_object():
    with pytest.raises(ConfigurationError):
        system_from_dict(["not", "a", "dict"])


def test_from_dict_reports_missing_field():
    data = system_to_dict(get_preset("rapid32"))
    del data["detector"]
    with pytest.raises(ConfigurationError, match="detector"):
        system_from_dict(data)
    data = system_to_dict(get_preset("rapid32"))
    del data["multiplexer"]["loop_delays"]
    with pytest.raises(ConfigurationError, match="loop_delays"):
        system_from_dict(data)


def test_from_dict_rejects_unknown_kinds():
    data = system_to_dict(get_preset("rapid32"))
    data["multiplexer"]["transmission"]["kind"] = "mystery"
    with pytest.raises(ConfigurationError, match="unknown kind"):
        system_from_dict(data)
    data = system_to_dict(get_preset("rapid32"))
    data["detector"]["undershoot"] = {"kind": "mystery"}
    with pytest.raises(ConfigurationError, match="unknown kind"):
        system_from_dict(data)


@pytest.mark.parametrize("section, key", [("multiplexer", "transmission"), ("detector", "undershoot")])
def test_an_unknown_kind_too_long_to_print_is_named_by_its_digit_count(section, key):
    # repr raises ValueError past Python's 4300-digit int-to-str limit, so the refusal once escaped as that.
    data = system_to_dict(get_preset("rapid32"))
    data[section][key] = {"kind": 10**5000}
    with pytest.raises(ConfigurationError) as exc:
        system_from_dict(data)
    assert str(exc.value) == f"{section}.{key}.kind: unknown kind an int of 5001 digits"


def test_from_dict_validates_resulting_system():
    data = system_to_dict(get_preset("rapid32"))
    data["detector"]["efficiency"] = 1.5
    with pytest.raises(ConfigurationError, match="efficiency"):
        system_from_dict(data)


def test_guard_validation():
    base = get_preset("rapid32")
    with pytest.raises(ConfigurationError, match="guard"):
        dataclasses.replace(base, guard=-1.0)


AFTERPULSE_KEY = "afterpulse_prob_one_deadtime_after_click"

# (dotted path in the config dict, value, the ConfigurationError message of the file): the model's
# message, which the file prefixes with its section.
NON_FINITE_FIELDS = [
    ("config.guard", float("nan"), "config.guard must be a real number in [0, inf), got nan"),
    ("config.guard", float("inf"), "config.guard must be a real number in [0, inf), got inf"),
    (f"detector.afterpulse_metadata.{AFTERPULSE_KEY}", float("nan"),
     f"detector.afterpulse_metadata.{AFTERPULSE_KEY} must be a real number in (-inf, inf), got nan"),
    (f"detector.afterpulse_metadata.{AFTERPULSE_KEY}", float("-inf"),
     f"detector.afterpulse_metadata.{AFTERPULSE_KEY} must be a real number in (-inf, inf), got -inf"),
]
NON_FINITE_IDS = ["guard-nan", "guard-inf", "afterpulse-nan", "afterpulse-minus-inf"]


def _non_finite_config(tmp_path, path, value):
    """A rapid32 config file with the field at path set to value; json.dumps writes NaN and Infinity."""
    config = tmp_path / "sys.json"
    config.write_text(json.dumps(_malformed(path, value)))
    return config


@pytest.mark.parametrize("path, value, message", NON_FINITE_FIELDS, ids=NON_FINITE_IDS)
def test_non_finite_config_numbers_are_rejected(tmp_path, path, value, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        load_system(_non_finite_config(tmp_path, path, value))
    base = get_preset("rapid32")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message.split('.', 1)[1])}$"):
        if path == "config.guard":
            dataclasses.replace(base, guard=value)
        else:
            dataclasses.replace(base.detector, afterpulse_metadata=((AFTERPULSE_KEY, value),))


@pytest.mark.parametrize("path, value, message", NON_FINITE_FIELDS, ids=NON_FINITE_IDS)
def test_cli_matrix_with_non_finite_config_exits_3(tmp_path, capsys, path, value, message):
    out = tmp_path / "m.csv"
    config = _non_finite_config(tmp_path, path, value)
    assert main(["matrix", "--config", str(config), "--mu-max", "10", "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"binflux: configuration error: {message}\n"
    assert not out.exists()


def test_num_bins_and_weights_shortcuts():
    system = get_preset("conventional16")
    assert system.num_bins == 16
    weights = system.bin_weights()
    assert weights.weights.shape == (16,)


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigurationError, match="conventional16"):
        get_preset("nope")


@pytest.mark.parametrize(
    "name, shown", [("nope", "'nope'"), (10**5000, "an int of 5001 digits")], ids=["str", "long-int"]
)
def test_unknown_preset_message_is_whole(name, shown):
    with pytest.raises(ConfigurationError) as exc:
        get_preset(name)
    assert str(exc.value) == f"preset: unknown name {shown} (available: conventional16, rapid32)"


# (dotted path, value, the whole ConfigurationError message): the file's structure, which the reader checks.
STRUCTURE_FIELDS = [
    ("multiplexer.transmission.avg_loss_db", None, "multiplexer.transmission.avg_loss_db: missing required field"),
    ("multiplexer.transmission.values", None, "multiplexer.transmission.values: missing required field"),
    ("multiplexer.transmission", "lossless", "multiplexer.transmission: expected a JSON object, got 'lossless'"),
    ("config.multiplexer", 5, "multiplexer: expected a JSON object, got 5"),
    ("detector.undershoot.p_miss_next", None, "detector.undershoot.p_miss_next: missing required field"),
    ("detector.afterpulse_metadata", "none", "detector.afterpulse_metadata: expected a JSON object, got 'none'"),
]
# (dotted path, value, the whole ConfigurationError message): a value, which the model checks.
MALFORMED_FIELDS = [
    ("multiplexer.loop_delays", 5, "multiplexer.loop_delays: expected a sequence, got 5"),
    ("multiplexer.loop_delays", "1e-9", "multiplexer.loop_delays: expected a sequence, got '1e-9'"),
    ("multiplexer.coupler_ratios", [0.5, 0.5, "half", 0.5, 0.5],
     "multiplexer.coupler_ratios[2] must be a real number in (0, 1), got 'half'"),
    ("multiplexer.detector_assignment", 7, "multiplexer.detector_assignment: expected a sequence, got 7"),
    ("multiplexer.transmission.values", 5, "multiplexer.transmission.values: expected a sequence, got 5"),
    ("detector.efficiency", "abc", "detector.efficiency must be a real number in (0, 1], got 'abc'"),
    ("detector.dark_prob_per_gate", [1e-5, "x"],
     "detector.dark_prob_per_gate[1] must be a real number in [0, 1), got 'x'"),
    ("detector.undershoot.points", [[10.0]], "detector.undershoot.points[0]: expected a (mu, eta) pair, got [10.0]"),
    ("detector.undershoot.p_miss_next", [0.1], "detector.undershoot.p_miss_next must be a real number in [0, 1], "
     "got [0.1]"),
    ("config.guard", "wide", "config.guard must be a real number in [0, inf), got 'wide'"),
    ("config.name", 5, "config.name: expected a string, got 5"),
]
# float() once read JSON true as 1.0 and a string that spells a number as that number, and the file loaded.
BOOLS_AND_NUMBER_STRINGS = [
    ("detector.efficiency", True, "detector.efficiency must be a real number in (0, 1], got True"),
    ("detector.deadtime", "9.78e-9", "detector.deadtime must be a real number in [0, inf), got '9.78e-9'"),
    ("multiplexer.transmission.avg_loss_db", False,
     "multiplexer.transmission.avg_loss_db must be a real number in [0, inf), got False"),
    ("detector.undershoot.points", [[10.0, 0.165], ["400", 0.145]],
     "detector.undershoot.points[1].mu must be a real number in [0, inf), got '400'"),
    (f"detector.afterpulse_metadata.{AFTERPULSE_KEY}", "0.09",
     f"detector.afterpulse_metadata.{AFTERPULSE_KEY} must be a real number in (-inf, inf), got '0.09'"),
    ("config.guard", True, "config.guard must be a real number in [0, inf), got True"),
]
MALFORMED_FIELDS += BOOLS_AND_NUMBER_STRINGS


def _ids(cases):
    """pytest's own ids for (field, value) pairs: a list value is named by its place."""
    return [f"{f}-value{i}" if isinstance(v, list) else f"{f}-{v}" for i, (f, v, _) in enumerate(cases)]


def _malformed(field, value):
    """rapid32 config dict with the field at the dotted path set to value (None: deleted)."""
    data = system_to_dict(get_preset("rapid32"))
    if field == "multiplexer.transmission.values":
        data["multiplexer"]["transmission"] = {"kind": "explicit"}
    elif field == "detector.undershoot.p_miss_next":
        data["detector"]["undershoot"] = {"kind": "mechanistic"}
    *parents, key = field.removeprefix("config.").split(".")
    parent = data
    for name in parents:
        parent = parent[name]
    if value is None:
        parent.pop(key, None)
    else:
        parent[key] = value
    return data


@pytest.mark.parametrize(
    "field, value, message", STRUCTURE_FIELDS + MALFORMED_FIELDS, ids=_ids(STRUCTURE_FIELDS + MALFORMED_FIELDS)
)
def test_load_system_names_malformed_field(tmp_path, field, value, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(field, value)))
    with pytest.raises(ConfigurationError) as exc:
        load_system(path)
    assert str(exc.value) == message


def _build_in_code(field, value):
    """Build, as code would, the rapid32 model object that holds the dotted field, with value for it."""
    base = get_preset("rapid32")
    section, key, *sub = field.split(".")
    if key == "transmission":
        value = UniformLoss(value) if sub == ["avg_loss_db"] else ExplicitTransmission(value)
    elif key == "undershoot":
        value = GlobalEfficiency(value) if sub == ["points"] else MechanisticUndershoot(value)
    elif key == "afterpulse_metadata":
        value = ((sub[0], value),)
    return dataclasses.replace(base if section == "config" else getattr(base, section), **{key: value})


@pytest.mark.parametrize("field, value, message", MALFORMED_FIELDS, ids=_ids(MALFORMED_FIELDS))
def test_a_config_value_gets_the_model_message_with_its_section(tmp_path, field, value, message):
    # Before, the file checked each value first with a rule of its own: an efficiency of "abc" was no real
    # number in (-inf, inf) in a file, but none in (0, 1] in code.
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(field, value)))
    with pytest.raises(ConfigurationError) as in_file:
        load_system(path)
    with pytest.raises(ConfigurationError) as in_code:
        _build_in_code(field, value)
    assert str(in_file.value) == f"{field.split('.')[0]}.{in_code.value}"


def test_cli_config_with_malformed_field_exits_3(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed("detector.efficiency", "abc")))
    out = tmp_path / "h.csv"
    args = ["simulate", "--config", str(path), "--mu", "2", "--shots", "10", "--seed", "1", "-o", str(out)]
    assert main(args) == 3
    assert "detector.efficiency" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", BOOLS_AND_NUMBER_STRINGS, ids=_ids(BOOLS_AND_NUMBER_STRINGS))
def test_cli_matrix_refuses_a_bool_or_string_number_with_exit_3(tmp_path, capsys, field, value, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(field, value)))
    out = tmp_path / "m.csv"
    assert main(["matrix", "--config", str(path), "--mu-max", "5", "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"binflux: configuration error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


# A value the file reads as a number but the model refuses: the model's message, named by the file's path.
MODEL_RANGE_FIELDS = [
    ("detector.efficiency", 1.5, "detector.efficiency must be a real number in (0, 1], got 1.5"),
    ("detector.dark_prob_per_gate", [1e-5], "detector.dark_prob_per_gate: expected a (detector 0, detector 1) pair, "
     "got [1e-05]"),
    ("detector.undershoot.points", [[10.0, 0.2], [5.0, 0.1]],
     "detector.undershoot.points: mu anchors must be strictly increasing"),
    ("multiplexer.coupler_ratios", [0.5],
     "multiplexer.coupler_ratios: expected 5 entries (one per loop stage plus the output coupler), got 1"),
    ("multiplexer.transmission.avg_loss_db", -1, "multiplexer.transmission.avg_loss_db must be a real number in "
     "[0, inf), got -1"),
    ("config.guard", -1e-9, "config.guard must be a real number in [0, inf), got -1e-09"),
]


@pytest.mark.parametrize("field, value, message", MODEL_RANGE_FIELDS, ids=_ids(MODEL_RANGE_FIELDS))
def test_a_model_range_error_is_named_by_the_file_path(tmp_path, capsys, field, value, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(field, value)))
    with pytest.raises(ConfigurationError) as exc:
        load_system(path)
    assert str(exc.value) == message
    assert main(["matrix", "--config", str(path), "--mu-max", "5", "-o", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err == f"binflux: configuration error: {message}\n"


def test_cli_refuses_a_config_number_too_large_for_a_double_with_exit_3(tmp_path, capsys):
    # Before, float() raised Python's own OverflowError on a 400-digit efficiency.
    value = 10**400
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed("detector.efficiency", value)))
    assert main(["matrix", "--config", str(path), "--mu-max", "5", "-o", str(tmp_path / "m.csv")]) == 3
    message = f"detector.efficiency must be a real number in (0, 1], got {value!r}"
    assert capsys.readouterr().err == f"binflux: configuration error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("index, entry", [(0, 0.7), (1, True), (2, 0.0), (3, "1"), (4, 2), (5, -1)])
def test_detector_assignment_entries_must_be_0_or_1(index, entry):
    # Before, int() read 0.7 as 0, True as 1, 0.0 as 0 and "1" as 1, and the file loaded.
    data = system_to_dict(get_preset("conventional16"))
    assignment = [0, 1] * 8
    assignment[index] = entry
    data["multiplexer"]["detector_assignment"] = assignment
    # MultiplexerSpec checks the entries, so a spec built in code gets the same message, less the file's section.
    message = f"detector_assignment[{index}] must be an integer in [0, 1], got {entry!r}"
    with pytest.raises(ConfigurationError) as exc:
        system_from_dict(data)
    assert str(exc.value) == f"multiplexer.{message}"
    with pytest.raises(ConfigurationError) as exc:
        MultiplexerSpec(loop_delays=(5e-6, 10e-6, 25e-6), detector_assignment=tuple(assignment))
    assert str(exc.value) == message


# (object, field, value): three misspellings, then a field that no object has. Before, each file loaded,
# rapid32 without its efficiency derating, with no guard or with 50/50 couplers, or as if the field were absent.
UNKNOWN_FIELDS = [
    ("detector", "undershot", {"kind": "global_efficiency", "points": [[10.0, 0.165], [400.0, 0.145]]}),
    ("config", "gaurd", 1e-9),
    ("multiplexer", "coupler_ratio", [0.4, 0.5, 0.5, 0.5, 0.5]),
    *((where, "comment", "x") for where in
      ("config", "multiplexer", "multiplexer.transmission", "detector", "detector.undershoot")),
]


@pytest.mark.parametrize("where, field, value", UNKNOWN_FIELDS, ids=[f"{w}.{f}" for w, f, _ in UNKNOWN_FIELDS])
def test_an_unknown_field_is_refused(tmp_path, capsys, where, field, value):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(f"{where}.{field}", value)))
    message = f"{where}.{field}: unknown field"
    with pytest.raises(ConfigurationError) as exc:
        load_system(path)
    assert str(exc.value) == message
    assert main(["matrix", "--config", str(path), "--mu-max", "5", "-o", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err == f"binflux: configuration error: {message}\n"


def test_afterpulse_metadata_names_are_free():
    system = system_from_dict(_malformed("detector.afterpulse_metadata.comment", 1))
    assert system.detector.afterpulse_metadata == (("comment", 1.0), ("trailing_gate_afterpulse_fraction", 144 / 12806))


def test_a_name_must_be_a_string():
    # Before, a file's "name": null loaded as the name "None" and 5 (a MALFORMED_FIELDS row) as "5", and
    # SystemConfig(name=b"x") built, then canonical_json raised TypeError.
    data = system_to_dict(get_preset("rapid32"))
    data["name"] = None
    assert system_from_dict(data).name == "custom"
    with pytest.raises(ConfigurationError) as exc:
        dataclasses.replace(get_preset("rapid32"), name=b"x")
    assert str(exc.value) == "name: expected a string, got b'x'"


def test_afterpulse_metadata_is_stored_sorted_by_name(tmp_path):
    # Before, the pairs kept the order given, so a spec differed from its saved-and-loaded copy.
    system = _tiny(afterpulse_metadata=(("b", 1.0), ("a", 2)))
    assert system.detector.afterpulse_metadata == (("a", 2.0), ("b", 1.0))
    assert system == _tiny(afterpulse_metadata=[("a", 2.0), ("b", 1.0)])
    assert system_from_dict(system_to_dict(system)) == system
    _assert_round_trip(system, tmp_path)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ((("a", 0.1), (1, 0.2)), "[1]: expected a string name not used before, got 1"),
        ((("a", 0.1), ("b", 0.2), ("a", 0.3)), "[2]: expected a string name not used before, got 'a'"),
        ((((), 0.1),), "[0]: expected a string name not used before, got ()"),
        (((10**5000, 0.1),), "[0]: expected a string name not used before, got an int of 5001 digits"),
    ],
    ids=["int-name", "name-twice", "tuple-name", "long-int-name"],
)
def test_afterpulse_names_must_be_distinct_strings(pairs, message):
    # Before, a name 1 built and fingerprint then raised TypeError; a name given twice built a spec that
    # differed from its saved-and-loaded copy.
    with pytest.raises(ConfigurationError) as exc:
        _tiny(afterpulse_metadata=pairs)
    assert str(exc.value) == f"afterpulse_metadata{message}"
