"""Built-in system configurations.

Two operating points of the same architecture:

* ``conventional16``: three loops with multi-microsecond delays, 16 bins per
  detector, conventionally gated detectors (long deadtime forces the wide
  bin spacing, so one measurement takes 45 us).
* ``rapid32``: four loops spaced at the 9.78 ns period of rapid gating,
  32 bins total, higher efficiency, and a gain-undershoot derating that
  lowers the effective efficiency for bright pulses. A full train fits in
  156.48 ns.
"""

from __future__ import annotations

from .config import SystemConfig
from .detector_model import DetectorSpec, GlobalEfficiency
from .errors import ConfigurationError, _shown
from .multiplexer import MultiplexerSpec, UniformLoss


def _conventional16() -> SystemConfig:
    return SystemConfig(
        name="conventional16",
        multiplexer=MultiplexerSpec(
            loop_delays=(5e-6, 10e-6, 25e-6),
            transmission=UniformLoss(avg_loss_db=1.44),
        ),
        detector=DetectorSpec(
            efficiency=0.10,
            # 8e-6 dark counts per ns across a 20 ns gate.
            dark_prob_per_gate=(1.6e-4, 1.6e-4),
            gate_width=20e-9,
            deadtime=5e-6,
            undershoot=None,
            afterpulse_metadata=(("afterpulse_prob_one_deadtime_after_click", 0.09),),
        ),
    )


def _rapid32() -> SystemConfig:
    return SystemConfig(
        name="rapid32",
        multiplexer=MultiplexerSpec(
            loop_delays=(9.78e-9, 19.56e-9, 39.12e-9, 78.24e-9),
            transmission=UniformLoss(avg_loss_db=1.35),
        ),
        detector=DetectorSpec(
            efficiency=0.165,
            dark_prob_per_gate=(1e-5, 5e-5),
            gate_width=2e-10,
            deadtime=9.78e-9,
            undershoot=GlobalEfficiency(points=((10.0, 0.165), (400.0, 0.145))),
            afterpulse_metadata=(("trailing_gate_afterpulse_fraction", 144.0 / 12806.0),),
        ),
    )


_BUILDERS = {
    "conventional16": _conventional16,
    "rapid32": _rapid32,
}

PRESET_NAMES: tuple[str, ...] = tuple(sorted(_BUILDERS))


def get_preset(name: str) -> SystemConfig:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"preset: unknown name {_shown(name)} (available: {', '.join(PRESET_NAMES)})"
        ) from None
    return builder()
