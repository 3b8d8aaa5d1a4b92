import dataclasses
import json

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
    canonical_json,
    fingerprint,
    get_preset,
    load_system,
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

# (dotted path in the config dict, value, start of the ConfigurationError message)
NON_FINITE_FIELDS = [
    ("config.guard", float("nan"), "guard: must be >= 0 and finite"),
    ("config.guard", float("inf"), "guard: must be >= 0 and finite"),
    (f"detector.afterpulse_metadata.{AFTERPULSE_KEY}", float("nan"), f"afterpulse_metadata.{AFTERPULSE_KEY}: must be finite"),
    (f"detector.afterpulse_metadata.{AFTERPULSE_KEY}", float("-inf"), f"afterpulse_metadata.{AFTERPULSE_KEY}: must be finite"),
]
NON_FINITE_IDS = ["guard-nan", "guard-inf", "afterpulse-nan", "afterpulse-minus-inf"]


def _non_finite_config(tmp_path, path, value):
    """A rapid32 config file with the field at path set to value; json.dumps writes NaN and Infinity."""
    config = tmp_path / "sys.json"
    config.write_text(json.dumps(_malformed(path, value)))
    return config


@pytest.mark.parametrize("path, value, message", NON_FINITE_FIELDS, ids=NON_FINITE_IDS)
def test_non_finite_config_numbers_are_rejected(tmp_path, path, value, message):
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        load_system(_non_finite_config(tmp_path, path, value))
    base = get_preset("rapid32")
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        if path == "config.guard":
            dataclasses.replace(base, guard=value)
        else:
            dataclasses.replace(base.detector, afterpulse_metadata=((AFTERPULSE_KEY, value),))


@pytest.mark.parametrize("path, value, message", NON_FINITE_FIELDS, ids=NON_FINITE_IDS)
def test_cli_matrix_with_non_finite_config_exits_3(tmp_path, capsys, path, value, message):
    out = tmp_path / "m.csv"
    config = _non_finite_config(tmp_path, path, value)
    assert main(["matrix", "--config", str(config), "--mu-max", "10", "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"binflux: configuration error: {message}")
    assert not out.exists()


def test_num_bins_and_weights_shortcuts():
    system = get_preset("conventional16")
    assert system.num_bins == 16
    weights = system.bin_weights()
    assert weights.weights.shape == (16,)


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigurationError, match="conventional16"):
        get_preset("nope")


MALFORMED_FIELDS = [
    ("multiplexer.transmission.avg_loss_db", None),
    ("multiplexer.transmission.values", None),
    ("multiplexer.loop_delays", 5),
    ("multiplexer.loop_delays", "1e-9"),
    ("multiplexer.coupler_ratios", ["half"]),
    ("multiplexer.detector_assignment", 7),
    ("multiplexer.transmission", "lossless"),
    ("config.multiplexer", 5),
    ("detector.efficiency", "abc"),
    ("detector.dark_prob_per_gate", [1e-5, "x"]),
    ("detector.undershoot.points", [[10.0]]),
    ("detector.undershoot.p_miss_next", None),
    ("detector.afterpulse_metadata", "none"),
    ("config.guard", "wide"),
]


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


@pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
def test_load_system_names_malformed_field(tmp_path, field, value):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed(field, value)))
    with pytest.raises(ConfigurationError) as exc:
        load_system(path)
    assert str(exc.value).startswith(f"{field}: ")


def test_cli_config_with_malformed_field_exits_3(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_malformed("detector.efficiency", "abc")))
    out = tmp_path / "h.csv"
    args = ["simulate", "--config", str(path), "--mu", "2", "--shots", "10", "--seed", "1", "-o", str(out)]
    assert main(args) == 3
    assert "detector.efficiency" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index, entry", [(0, 0.7), (1, True), (2, 0.0), (3, "1"), (4, 2), (5, -1)])
def test_detector_assignment_entries_must_be_0_or_1(index, entry):
    # Before, int() read 0.7 as 0, True as 1, 0.0 as 0 and "1" as 1, and the file loaded.
    data = system_to_dict(get_preset("conventional16"))
    assignment = [0, 1] * 8
    assignment[index] = entry
    data["multiplexer"]["detector_assignment"] = assignment
    message = (
        f"multiplexer.detector_assignment: malformed value {assignment!r} "
        f"(detector_assignment[{index}] must be an integer in [0, 1], got {entry!r})"
    )
    with pytest.raises(ConfigurationError) as exc:
        system_from_dict(data)
    assert str(exc.value) == message
