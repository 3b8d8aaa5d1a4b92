"""Simulation and Bayesian pulse-energy estimation for time-multiplexed
photon-counting detectors.

A pulse is spread over many time bins by a fiber-loop multiplexer and
watched by a pair of gated detectors that can only click or stay silent.
This package simulates that click process, computes the exact click-count
statistics where a closed form exists, builds the detector response matrix
P(n clicks | mu), inverts it into posteriors with credible intervals, and
benchmarks the result against a conventional attenuated single-pixel
measurement.
"""

__version__ = "0.4.0"

from .baseline import (
    Z_90,
    attenuation_for_target,
    baseline_error_curve,
    optimal_detection_probability,
    relative_error_factor,
    shots_to_relative_error,
    simulate_baseline,
)
from .config import (
    SystemConfig,
    canonical_json,
    fingerprint,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from .detector_model import (
    DetectorSpec,
    GlobalEfficiency,
    MechanisticUndershoot,
    effective_efficiency,
    no_click_probabilities,
    per_bin_dark_probabilities,
    shot_dark_probability,
)
from .errors import (
    BinfluxError,
    ConfigurationError,
    DegenerateEvidenceError,
    MatrixFormatError,
    ModelUnsupportedError,
)
from .exact_oracle import (
    ClickDistribution,
    click_distribution,
    coherent_click_distribution,
    fock_click_distribution,
    total_variation,
)
from .inference import (
    CredibleInterval,
    Posterior,
    RelativeErrorCurve,
    credible_interval,
    interval_to_energy,
    posterior_multi,
    posterior_single,
    relative_error_curve,
    stability_max_n,
)
from .mc_engine import (
    BatchResult,
    Coherent,
    Fock,
    simulate_batch,
)
from .multiplexer import (
    BinWeights,
    ExplicitTransmission,
    MultiplexerSpec,
    TimingReport,
    UniformLoss,
    build_bin_weights,
    validate_timing,
)
from .presets import PRESET_NAMES, get_preset
from .response_matrix import (
    ResponseMatrix,
    RowProvenance,
    build_matrix,
    load_matrix,
    save_matrix,
    validate_interpolation,
)
