"""System configuration: multiplexer plus detectors, serialization, fingerprint.

A SystemConfig is the unit that simulations, response matrices, and the
command line all operate on. Its canonical JSON form (sorted keys, compact
separators, shortest round-trip float repr) feeds a SHA-256 fingerprint that
ties saved artifacts back to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .detector_model import DetectorSpec, GlobalEfficiency, MechanisticUndershoot
from .errors import ConfigurationError, _real, _shown
from .multiplexer import (
    BinWeights,
    ExplicitTransmission,
    MultiplexerSpec,
    UniformLoss,
    build_bin_weights,
)


@dataclass(frozen=True)
class SystemConfig:
    name: str
    multiplexer: MultiplexerSpec
    detector: DetectorSpec
    guard: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name: expected a string, got {_shown(self.name)}")
        if self.guard is not None:
            object.__setattr__(self, "guard", _real(self.guard, "guard", 0.0, brackets="[)", error=ConfigurationError))

    def bin_weights(self) -> BinWeights:
        return build_bin_weights(self.multiplexer)

    @property
    def num_bins(self) -> int:
        return self.multiplexer.num_bins


def system_to_dict(system: SystemConfig) -> dict[str, Any]:
    mux = system.multiplexer
    t = mux.transmission
    if isinstance(t, UniformLoss):
        trans: dict[str, Any] = {"kind": "uniform_loss", "avg_loss_db": t.avg_loss_db}
    else:
        trans = {"kind": "explicit", "values": list(t.values)}
    da = mux.detector_assignment
    det = system.detector
    u = det.undershoot
    if u is None:
        under: Any = None
    elif isinstance(u, GlobalEfficiency):
        under = {"kind": "global_efficiency", "points": [list(p) for p in u.points]}
    else:
        under = {"kind": "mechanistic", "p_miss_next": u.p_miss_next}
    return {
        "name": system.name,
        "multiplexer": {
            "loop_delays": list(mux.loop_delays),
            "coupler_ratios": None if mux.coupler_ratios is None else list(mux.coupler_ratios),
            "transmission": trans,
            "detector_assignment": da if isinstance(da, str) else list(da),
        },
        "detector": {
            "efficiency": det.efficiency,
            "dark_prob_per_gate": list(det.dark_prob_per_gate),
            "gate_width": det.gate_width,
            "deadtime": det.deadtime,
            "undershoot": under,
            "afterpulse_metadata": None
            if det.afterpulse_metadata is None
            else {k: v for k, v in det.afterpulse_metadata},
        },
        "guard": system.guard,
    }


_REQUIRED = object()
# Each kind of transmission and undershoot: its class and its one field besides "kind".
_TRANSMISSIONS = {"uniform_loss": (UniformLoss, "avg_loss_db"), "explicit": (ExplicitTransmission, "values")}
_UNDERSHOOTS = {
    "global_efficiency": (GlobalEfficiency, "points"),
    "mechanistic": (MechanisticUndershoot, "p_miss_next"),
}


def _object(value: Any, where: str) -> dict[str, Any]:
    """value, or ConfigurationError naming where unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {_shown(value)}")
    return value


def _fields(value: Any, where: str, **defaults: Any) -> dict[str, Any]:
    """Each field of the JSON object value named in defaults, as written, or its default if absent or null.

    ConfigurationError names the field where.key if its default is _REQUIRED
    and it is absent or null, or if defaults does not name it: system_to_dict
    writes no such field.
    """
    for key in _object(value, where):
        if key not in defaults:
            raise ConfigurationError(f"{where}.{key}: unknown field")
    fields = {key: default if value.get(key) is None else value[key] for key, default in defaults.items()}
    for key, field in fields.items():
        if field is _REQUIRED:
            raise ConfigurationError(f"{where}.{key}: missing required field")
    return fields


def _section(where: str, build: Callable[..., Any], *args: Any, **fields: Any) -> Any:
    """build(*args, **fields), a ConfigurationError from the model's own checks named by the file's path under where."""
    try:
        return build(*args, **fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}.{exc}") from None


def _kind(value: Any, section: str, key: str, kinds: dict[str, tuple[Callable[..., Any], str]]) -> Any:
    """The model object that the JSON object value at section.key describes, of the class its kind names in kinds."""
    where = f"{section}.{key}"
    kind = _object(value, where).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"{where}.kind: unknown kind {_shown(kind)}")
    build, field = kinds[kind]
    return _section(section, build, _fields(value, where, kind=_REQUIRED, **{field: _REQUIRED})[field])


def system_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Parse a configuration dict; a missing, unknown or bad field raises ConfigurationError naming it.

    The reader checks the structure: objects, required fields and kinds. It
    hands every value to the model classes as written, and their checks,
    prefixed with the file's section, name a bad one.
    """
    config = _fields(data, "config", name="custom", multiplexer=_REQUIRED, detector=_REQUIRED, guard=None)
    mux = _fields(
        config["multiplexer"],
        "multiplexer",
        loop_delays=_REQUIRED,
        coupler_ratios=None,
        transmission={"kind": "uniform_loss", "avg_loss_db": 0.0},
        detector_assignment="final_coupler",
    )
    mux["transmission"] = _kind(mux["transmission"], "multiplexer", "transmission", _TRANSMISSIONS)
    det = _fields(
        config["detector"],
        "detector",
        efficiency=_REQUIRED,
        dark_prob_per_gate=_REQUIRED,
        gate_width=_REQUIRED,
        deadtime=_REQUIRED,
        undershoot=None,
        afterpulse_metadata=None,
    )
    if det["undershoot"] is not None:
        det["undershoot"] = _kind(det["undershoot"], "detector", "undershoot", _UNDERSHOOTS)
    if det["afterpulse_metadata"] is not None:
        det["afterpulse_metadata"] = tuple(_object(det["afterpulse_metadata"], "detector.afterpulse_metadata").items())
    config["multiplexer"] = _section("multiplexer", MultiplexerSpec, **mux)
    config["detector"] = _section("detector", DetectorSpec, **det)
    return _section("config", SystemConfig, **config)


def canonical_json(system: SystemConfig) -> str:
    return json.dumps(system_to_dict(system), sort_keys=True, separators=(",", ":"))


def fingerprint(system: SystemConfig) -> str:
    """SHA-256 hex digest of the canonical configuration JSON."""
    return hashlib.sha256(canonical_json(system).encode("ascii")).hexdigest()


def save_system(system: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2, sort_keys=True) + "\n")


def load_system(path: str | Path) -> SystemConfig:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or a number past the int-to-str digit limit
        raise ConfigurationError(f"config file {path}: invalid JSON ({exc})") from exc
    return system_from_dict(data)
