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
from .errors import ConfigurationError, _real
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


def _field(
    d: dict[str, Any], key: str, where: str, convert: Callable[[Any, str], Any], default: Any = _REQUIRED
) -> Any:
    """convert(d[key], name) for the dotted field name where.key, raising ConfigurationError that names it.

    An absent or null field is an error unless a default is given, which is
    then returned unconverted.
    """
    name = f"{where}.{key}"
    value = d.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"{name}: missing required field")
        return default
    try:
        return convert(value, name)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: malformed value {value!r} ({exc})") from None


def _object(value: Any, name: str = "") -> dict[str, Any]:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _sequence(value: Any, name: str = "") -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list")
    return value


def _number(value: Any, name: str) -> float:
    """A finite JSON number as a float; the model checks its range. true and "1e-9" are no numbers."""
    return _real(value, name, error=ConfigurationError)


def _numbers(value: Any, name: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(_sequence(value)))


def _points(value: Any, name: str) -> tuple[tuple[float, ...], ...]:
    pairs = tuple(_numbers(p, f"{name}[{i}]") for i, p in enumerate(_sequence(value)))
    if any(len(p) != 2 for p in pairs):
        raise ValueError("expected [mu, eta] pairs")
    return pairs


def _assignment(value: Any, name: str) -> str | tuple:
    """The mode name or the entries, which MultiplexerSpec checks."""
    return value if isinstance(value, str) else tuple(_sequence(value))


def _section(where: str, build: Callable[..., Any], *args: Any, **fields: Any) -> Any:
    """build(*args, **fields), a ConfigurationError from the model's own checks named by the file's path under where."""
    try:
        return build(*args, **fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}.{exc}") from None


def system_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Parse a configuration dict; a missing, malformed or out-of-range field raises ConfigurationError naming it."""
    if not isinstance(data, dict):
        raise ConfigurationError("config: expected a JSON object")
    mux_d = _field(data, "multiplexer", "config", _object)
    det_d = _field(data, "detector", "config", _object)

    lossless = {"kind": "uniform_loss", "avg_loss_db": 0.0}
    trans_d = _field(mux_d, "transmission", "multiplexer", _object, lossless)
    kind = trans_d.get("kind")
    if kind == "uniform_loss":
        trans: UniformLoss | ExplicitTransmission = UniformLoss(
            _field(trans_d, "avg_loss_db", "multiplexer.transmission", _number)
        )
    elif kind == "explicit":
        trans = ExplicitTransmission(_field(trans_d, "values", "multiplexer.transmission", _numbers))
    else:
        raise ConfigurationError(f"multiplexer.transmission.kind: unknown kind {kind!r}")

    mux = _section(
        "multiplexer",
        MultiplexerSpec,
        loop_delays=_field(mux_d, "loop_delays", "multiplexer", _numbers),
        coupler_ratios=_field(mux_d, "coupler_ratios", "multiplexer", _numbers, None),
        transmission=trans,
        detector_assignment=_field(mux_d, "detector_assignment", "multiplexer", _assignment, "final_coupler"),
    )

    under_d = _field(det_d, "undershoot", "detector", _object, None)
    if under_d is None:
        under: GlobalEfficiency | MechanisticUndershoot | None = None
    elif under_d.get("kind") == "global_efficiency":
        under = _section("detector", GlobalEfficiency, _field(under_d, "points", "detector.undershoot", _points))
    elif under_d.get("kind") == "mechanistic":
        p_miss_next = _field(under_d, "p_miss_next", "detector.undershoot", _number)
        under = _section("detector", MechanisticUndershoot, p_miss_next)
    else:
        raise ConfigurationError(f"detector.undershoot.kind: unknown kind {under_d.get('kind')!r}")

    det = _section(
        "detector",
        DetectorSpec,
        efficiency=_field(det_d, "efficiency", "detector", _number),
        dark_prob_per_gate=_field(det_d, "dark_prob_per_gate", "detector", _numbers),
        gate_width=_field(det_d, "gate_width", "detector", _number),
        deadtime=_field(det_d, "deadtime", "detector", _number),
        undershoot=under,
        afterpulse_metadata=_field(
            det_d,
            "afterpulse_metadata",
            "detector",
            lambda ap, name: tuple(sorted((str(k), _number(v, f"{name}.{k}")) for k, v in _object(ap).items())),
            None,
        ),
    )

    return _section(
        "config",
        SystemConfig,
        name=str(data.get("name", "custom")),
        multiplexer=mux,
        detector=det,
        guard=_field(data, "guard", "config", _number, None),
    )


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
