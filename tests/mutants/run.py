"""Mutation check: every one-line mutant of src/binflux must fail the tests named for it.

Each mutant changes one line of one module. For each, the runner copies
src/ to a temporary directory, applies the mutant there and runs only the
tests named for it against the copy, so the working tree is never
touched. A mutant that passes its tests survives, and the run exits 1,
unless the mutant is listed as equivalent together with the reason no
test can tell it from the original. Before any mutant, the named tests
must pass on an unmutated copy, or no kill would mean anything.

    python tests/mutants/run.py

pytest does not collect this file: its name does not match test_*.py.
Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 34 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/binflux
    original: str  # text that occurs exactly once in the module
    mutated: str
    tests: tuple[str, ...]  # test files or test ids under tests/
    equivalent: str | None = None  # why no test can tell it from the original


MUTANTS = (
    Mutant(
        "rng.lane_threshold_floor",
        "_rng.py",
        "return np.ceil(np.ldexp(",
        "return np.floor(np.ldexp(",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "rng.gate_threshold_floor",
        "_rng.py",
        "ceil = np.ceil(np.ldexp(",
        "ceil = np.floor(np.ldexp(",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "errors.integer_accepts_bool",
        "errors.py",
        "isinstance(value, bool)\n        or not isinstance(value, (int, np.integer))",
        "False\n        or not isinstance(value, (int, np.integer))",
        ("test_integer_arguments.py::test_a_bad_integer_argument_names_its_parameter",),
    ),
    Mutant(
        "errors.integer_accepts_float",
        "errors.py",
        "not isinstance(value, (int, np.integer))",
        "not isinstance(value, (int, float, np.integer))",
        ("test_integer_arguments.py::test_a_bad_integer_argument_names_its_parameter",),
    ),
    Mutant(
        "errors.integer_accepts_one_below_lo",
        "errors.py",
        "or value < lo\n",
        "or value < lo - 1\n",
        ("test_integer_arguments.py::test_a_bad_integer_argument_names_its_parameter",),
    ),
    Mutant(
        "errors.real_accepts_bool",
        "errors.py",
        "isinstance(value, bool)\n        or not isinstance(value, (float, int, Real))",
        "False\n        or not isinstance(value, (float, int, Real))",
        ("test_real_arguments.py::test_a_bad_real_names_its_parameter_and_interval",),
    ),
    Mutant(
        "errors.real_open_lo_taken_as_closed",
        "errors.py",
        'lo < value if brackets[0] == "("',
        'lo <= value if brackets[0] == "("',
        ("test_real_arguments.py::test_a_bad_real_names_its_parameter_and_interval",),
    ),
    Mutant(
        "errors.real_open_hi_taken_as_closed",
        "errors.py",
        'value < hi if brackets[1] == ")"',
        'value <= hi if brackets[1] == ")"',
        ("test_real_arguments.py::test_a_bad_real_names_its_parameter_and_interval",),
    ),
    Mutant(
        "errors.real_closed_lo_taken_as_open",
        "errors.py",
        'else lo <= value)',
        'else lo < value)',
        ("test_real_arguments.py::test_a_closed_end_is_inside",),
    ),
    Mutant(
        "errors.real_overflow_escapes",
        "errors.py",
        "except OverflowError:",
        "except ():",
        ("test_real_arguments.py::test_an_int_too_large_for_a_double_is_refused",),
    ),
    Mutant(
        "rng.advance_by_shots_not_words",
        "_rng.py",
        "advance(start_shot * lanes)",
        "advance(start_shot)",
        ("test_mc2_kernel.py::test_lanes_are_consecutive_words_of_one_stream",),
    ),
    Mutant(
        "rng.lane_bits_shift",
        "mc_engine.py",
        "detected >>= 64 - _LANE_BITS",
        "detected >>= 63 - _LANE_BITS",
        ("test_mc_stream.py",),
    ),
    Mutant(
        "mc_engine.lost_cell_lifted_by_ten_bits",
        "mc_engine.py",
        "self.lost = int(self.route[b - 1]) << (64 - _LANE_BITS)",
        "self.lost = int(self.route[b - 1]) << (63 - _LANE_BITS)",
        ("test_mc2_kernel.py::test_fock_hits_at_the_lost_cell_threshold",),
    ),
    Mutant(
        "mc_engine.lost_cell_word_detected",
        "mc_engine.py",
        "pos = np.flatnonzero(words < self.lost)",
        "pos = np.flatnonzero(words <= self.lost)",
        ("test_mc2_kernel.py::test_fock_hits_at_the_lost_cell_threshold",),
    ),
    Mutant(
        "mc_engine.click_totals_drop_the_last_word",
        "mc_engine.py",
        "for c in range(1, group.shape[1]):",
        "for c in range(1, group.shape[1] - 1):",
        ("test_mc2_kernel.py::test_click_totals_equal_the_summed_clicks",),
    ),
    Mutant(
        "mc_engine.pad_bytes_left_unset",
        "mc_engine.py",
        "rows[:, b:] = False",
        "pass",
        ("test_mc2_kernel.py::test_click_totals_equal_the_summed_clicks",),
    ),
    Mutant(
        "mc_engine.fock_dark_lane_at_threshold",
        "mc_engine.py",
        "_compare(np.less, gates[:, :b], self.tiled, clicks)",
        "_compare(np.less_equal, gates[:, :b], self.tiled, clicks)",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.coherent_half_word_at_threshold",
        "mc_engine.py",
        "_compare(np.greater_equal, gates[:, :b], self.tiled, clicks)",
        "_compare(np.greater, gates[:, :b], self.tiled, clicks)",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.silent_gate_clicks_on_the_top_half_word",
        "mc_engine.py",
        "clicks[:, self.silent[1]] = False",
        "pass",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.certain_dark_count_misses_the_top_half_word",
        "mc_engine.py",
        "clicks[:, self.dark[1]] = True",
        "pass",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.certain_miss_misses_the_top_half_word",
        "mc_engine.py",
        "miss[:, full] = True",
        "pass",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.undershoot_ignores_the_previous_click",
        "mc_engine.py",
        "clicks[j] &= ~(clicks[prev] & miss[j])",
        "clicks[j] &= ~miss[j]",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.count_group_past_the_byte_bound",
        "mc_engine.py",
        "_COUNT_WORDS = 31",
        "_COUNT_WORDS = 32",
        ("test_mc2_kernel.py::test_click_totals_count_every_gate_of_a_full_row",),
    ),
    Mutant(
        "mc_engine.last_shots_left_undecided",
        "mc_engine.py",
        "op(gates[k:], tiled[: m - k], out=out[k:])",
        "pass",
        ("test_mc_stream.py",),
    ),
    Mutant(
        "mc_engine.shared_rows_use_the_first_row_thresholds",
        "mc_engine.py",
        "for kernel in kernels:",
        "for kernel in kernels[:1] * len(kernels):",
        ("test_common_words.py::test_every_row_is_simulate_batch_of_its_provenance_seed",),
    ),
    Mutant(
        "mc_engine.shared_rows_read_words_offset_by_their_index",
        "mc_engine.py",
        "_, totals, photons = kernel.run(words)",
        "_, totals, photons = kernel.run(np.roll(words, kernels.index(kernel), axis=0))",
        ("test_common_words.py::test_every_row_is_simulate_batch_of_its_provenance_seed",),
    ),
    Mutant(
        "exact_oracle.poisson_binomial_drops_a_click",
        "exact_oracle.py",
        "dist[1 : j + 2] += fired",
        "dist[1 : j + 1] += fired[:-1]",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "detector_model.undershoot_in_time_order_across_detectors",
        "detector_model.py",
        'order = np.argsort(weights.detector_of_bin, kind="stable")',
        "order = np.arange(weights.num_bins)",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.gate_step_never_misses",
        "exact_oracle.py",
        "clicked[1:] = fired_silent + (1.0 - miss) * fired_clicked",
        "clicked[1:] = fired_silent + fired_clicked",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.transfer_shares_swapped",
        "exact_oracle.py",
        "np.convolve(t[r - 1, :r], (s, 1.0 - s))",
        "np.convolve(t[r - 1, :r], (1.0 - s, s))",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.transfer_drops_the_shift_term",
        "exact_oracle.py",
        "np.convolve(t[r - 1, :r], (s, 1.0 - s))",
        "np.convolve(t[r - 1, :r], (s, 0.0))",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.fock_gate_clicks_without_a_dark_count",
        "exact_oracle.py",
        "np.fill_diagonal(wants, none_land * dark_j)",
        "np.fill_diagonal(wants, none_land)",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "detector_model.undershoot_type_unchecked",
        "detector_model.py",
        "if not isinstance(self.undershoot, (GlobalEfficiency, MechanisticUndershoot, type(None))):",
        "if False:",
        ("test_detector_model.py::test_a_spec_checks_itself_when_built",),
    ),
    Mutant(
        "detector_model.afterpulse_metadata_unsorted",
        "detector_model.py",
        "checked = sorted((k, _real(",
        "checked = list((k, _real(",
        ("test_config.py::test_afterpulse_metadata_is_stored_sorted_by_name",),
    ),
    Mutant(
        "config.section_prefix_dropped",
        "config.py",
        'raise ConfigurationError(f"{where}.{exc}") from None',
        'raise ConfigurationError(f"{exc}") from None',
        ("test_config.py::test_a_config_value_gets_the_model_message_with_its_section",),
    ),
    Mutant(
        "config.unknown_field_accepted",
        "config.py",
        "if key not in defaults:",
        "if False:",
        ("test_config.py::test_an_unknown_field_is_refused",),
    ),
    Mutant(
        "config.record_without_its_kind",
        "config.py",
        'return record if kind is None else {"kind": kind, **record}',
        "return record",
        ("test_config.py::test_canonical_json_is_pinned",),
    ),
    Mutant(
        "config.afterpulse_metadata_written_as_pairs",
        "config.py",
        "if system.detector.afterpulse_metadata is not None:",
        "if False:",
        ("test_config.py::test_canonical_json_is_pinned",),
    ),
    Mutant(
        "inference.curve_reads_a_matrix_of_another_bin_count",
        "inference.py",
        "if matrix.num_bins != system.num_bins:",
        "if False:",
        ("test_curve_draws.py::test_a_matrix_of_another_bin_count_is_refused",),
    ),
    Mutant(
        "mc_engine.stream_admits_one_shot_past_its_end",
        "mc_engine.py",
        "if (start_shot + n_shots) * lanes > _STREAM_WORDS:",
        "if (start_shot + n_shots - 1) * lanes > _STREAM_WORDS:",
        ("test_mc_engine.py::test_the_stream_ends_at_its_last_word",),
    ),
    Mutant(
        "multiplexer.bin_weights_sum_unchecked",
        "multiplexer.py",
        "w.sum() <= 1.0 + 1e-12",
        "np.isfinite(w.sum())",
        ("test_multiplexer.py::test_bin_weights_check_themselves_when_built",),
    ),
    Mutant(
        "detector_model.pair_refusal_printed_with_repr",
        "detector_model.py",
        "pair, got {_shown(entry)}",
        "pair, got {entry!r}",
        # An int past Python's 4300-digit limit then escapes as repr's own ValueError.
        ("test_detector_model.py::test_a_spec_checks_itself_when_built",),
    ),
    Mutant(
        "inference.posterior_single_drops_the_flat_prior",
        "inference.py",
        "log_evidence=math.log(total) - math.log(col.size)",
        "log_evidence=math.log(total)",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.posterior_multi_drops_the_flat_prior",
        "inference.py",
        "log_evidence=float(log_norm[0]) - math.log(post.size)",
        "log_evidence=float(log_norm[0])",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.histogram_drops_the_count_weight",
        "inference.py",
        "(np.log(matrix.rows[:, used]) * h[used]).sum(axis=1)",
        "np.log(matrix.rows[:, used]).sum(axis=1)",
        (
            "test_inference.py::test_posterior_multi_weights_repeated_counts_past_zero_cells",
            "test_inference.py::test_histogram_posterior_matches_the_per_observation_log_sum",
        ),
    ),
    Mutant(
        "inference.histogram_drops_the_first_shot",
        "inference.py",
        "h = np.bincount(obs)",
        "h = np.bincount(obs[1:])",
        ("test_inference.py::test_histogram_posterior_matches_the_per_observation_log_sum",),
    ),
    Mutant(
        "inference.one_shot_branch_takes_two_shots",
        "inference.py",
        "if obs.size == 1:",
        "if obs.size <= 2:",
        ("test_inference.py::test_histogram_posterior_matches_the_per_observation_log_sum",),
    ),
    Mutant(
        "inference.hpd_stops_only_above_level",
        "inference.py",
        "done = (mass >= level) | ((new_lo",
        "done = (mass > level) | ((new_lo",
        # Fails at once; under -x the file's first failure is a Hypothesis test that shrinks for up to 90 s.
        ("test_batched.py::test_running_mass_hpd_matches_scalar_loop_on_wide_rows",),
    ),
    Mutant(
        "inference.stability_accepts_the_tolerance",
        "inference.py",
        "~(_stability_tv(wide.rows, mu_max) < tolerance)",
        "~(_stability_tv(wide.rows, mu_max) <= tolerance)",
        ("test_inference.py", "test_batched.py"),
    ),
    Mutant(
        "inference.curve_rejects_the_cutoff_count",
        "inference.py",
        "cdf = np.cumsum(law[: cutoff + 1])",
        "cdf = np.cumsum(law[:cutoff])",
        (
            "test_curve_draws.py::test_drawn_counts_follow_the_exact_truncated_law",
            "test_inference_stream.py::test_relative_error_curve_is_pinned",
        ),
    ),
    Mutant(
        "inference.curve_draws_from_the_untruncated_law",
        "inference.py",
        "cdf = np.cumsum(law[: cutoff + 1])",
        "cdf = np.cumsum(law)",
        ("test_curve_draws.py::test_drawn_counts_follow_the_exact_truncated_law",),
    ),
    Mutant(
        "inference.curve_inverts_with_side_left",
        "inference.py",
        'lanes >> 11, side="right"',
        'lanes >> 11, side="left"',
        # A lane differs only where it equals a threshold, which random words all but never do.
        ("test_curve_draws.py::test_a_count_is_the_number_of_cdf_values_at_or_below_its_uniform",),
    ),
    Mutant(
        "inference.curve_lanes_not_shifted",
        "inference.py",
        'lanes >> 11, side="right"',
        'lanes, side="right"',
        ("test_curve_draws.py::test_drawn_counts_follow_the_exact_truncated_law",),
    ),
    Mutant(
        "inference.curve_trials_on_trial_zeros_stream",
        "inference.py",
        "seed_sequence(derive_seed(seed, t))",
        "seed_sequence(derive_seed(seed, 0))",
        (
            "test_curve_draws.py::test_a_trial_does_not_depend_on_the_trial_count_or_on_later_shots",
            "test_batched.py::test_relative_error_curve_matches_a_per_trial_loop_byte_for_byte",
        ),
    ),
    Mutant(
        "inference.curve_admissible_mass_refusal_inverted",
        "inference.py",
        "cdf[-1] < _CURVE_MIN_ADMISSIBLE",
        "cdf[-1] >= _CURVE_MIN_ADMISSIBLE",
        (
            "test_curve_draws.py::test_the_admissible_mass_floor_decides_the_refusal",
            "test_inference.py::test_relative_error_curve_impossible_cutoff",
        ),
    ),
    Mutant(
        "inference.counts_admit_one_past_the_grid",
        "inference.py",
        "obs.max() <= hi",
        "obs.max() <= hi + 1",
        ("test_inference.py::test_a_click_count_off_the_grid_is_named",),
    ),
    Mutant(
        "inference.counts_admit_bools",
        "inference.py",
        "and t is not bool for t in",
        "for t in",
        ("test_inference.py::test_posterior_rejects_a_click_count_that_is_not_an_integer",),
    ),
    Mutant(
        "inference.refusal_rejects_the_cutoff_count",
        "inference.py",
        "if max_admissible_n is not None and worst > max_admissible_n:",
        "if max_admissible_n is not None and worst >= max_admissible_n:",
        ("test_inference.py::test_posterior_multi_validation", "test_cli.py::test_infer_cutoff_override"),
    ),
    Mutant(
        "inference.exp_floor_where_exp_underflows",
        "inference.py",
        "_EXP_FLOOR = -700.0",
        "_EXP_FLOOR = -746.0",
        # rel_err is the same under this mutant: only the posterior it hands _hpd_rows can show it.
        ("test_batched.py::test_relative_error_curve_hands_hpd_no_subnormal_cell",),
    ),
    Mutant(
        "inference.curve_sums_from_row_one",
        "inference.py",
        "                if k:\n",
        "                if k > 1:\n",
        # Shot 2's log posterior is its count's column alone.
        ("test_batched.py::test_relative_error_curve_posteriors_are_the_cumsum_build_byte_for_byte",),
    ),
    Mutant(
        "inference.curve_carry_not_refreshed",
        "inference.py",
        "np.copyto(carry[:width], prev)",
        "carry[:width]",
        # Every block after the first adds to whatever the carry held before.
        ("test_inference_stream.py::test_relative_error_curve_is_pinned",),
    ),
    Mutant(
        "inference.curve_block_adds_the_normalised_row",
        "inference.py",
        "rows, prev = buf[: len(shots) * width], carry[:width]",
        "rows, prev = buf[: len(shots) * width], buf[(depth - 1) * width : depth * width]",
        # A block's first row adds the previous block's last row after exp.
        ("test_inference_stream.py::test_relative_error_curve_is_pinned",),
    ),
    Mutant(
        "inference.curve_mode_trusts_logp_near_the_top",
        "inference.py",
        "near = np.flatnonzero(top[:, 0] > -8.0)",
        "near = np.flatnonzero(top[:, 0] > -0.25)",
        # A row peaking at -0.5 whose cell one ulp below divides to the peak's quotient.
        ("test_batched.py::test_curve_mode_takes_the_divided_rows_first_argmax_near_the_top",),
    ),
    Mutant(
        "inference.hpd_held_not_divided",
        "inference.py",
        "held = P[np.arange(k), lo] / total[:, 0]",
        "held = P[np.arange(k), lo]",
        # Every undivided mode cell is 1, so every row stops at its mode.
        ("test_batched.py::test_hpd_rows_on_undivided_rows_match_the_divided_rows",),
    ),
    Mutant(
        "inference.hpd_exact_sum_not_divided",
        "inference.py",
        "(P[act[i], new_lo[i, t] : new_hi[i, t] + 1] / total[act[i], 0]).sum()",
        "P[act[i], new_lo[i, t] : new_hi[i, t] + 1].sum()",
        ("test_batched.py::test_hpd_rows_sums_divided_cells_near_the_level",),
    ),
    Mutant(
        "inference.lockstep_ties_go_right",
        "inference.py",
        "go_left = a >= b",
        "go_left = a > b",
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_stops_only_above_level",
        "inference.py",
        "done = (mass >= level) | (right - left > n)",
        "done = (mass > level) | (right - left > n)",
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_left_cell_not_divided",
        "inference.py",
        'a = flat.take(left, mode="clip") / tot',
        'a = flat.take(left, mode="clip")',
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_left_edge_unmasked",
        "inference.py",
        "np.copyto(a, -1.0, where=left < base)",
        "pass",
        # The cell before a row's first is the previous row's last.
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_right_edge_unmasked",
        "inference.py",
        "np.copyto(b, -1.0, where=right >= end)",
        "pass",
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_exact_sum_not_divided",
        "inference.py",
        "(P[act[i], left[i] - base[i] + 1 : right[i] - base[i]] / tot[i]).sum()",
        "P[act[i], left[i] - base[i] + 1 : right[i] - base[i]].sum()",
        ("test_batched.py::test_lockstep_phase_on_crafted_rows", "test_batched.py::test_lockstep_hpd_rows_match_scalar_greedy_loop"),
    ),
    Mutant(
        "inference.lockstep_gate_takes_any_row_count",
        "inference.py",
        "if act.size >= _HPD_LOCKSTEP_ROWS:",
        "if act.size >= 1:",
        # Intervals are the same either way; a single row must keep today's merge-only path.
        ("test_batched.py::test_fewer_growing_rows_than_the_lockstep_gate_take_the_merge_alone",),
    ),
    Mutant(
        "response_matrix.interpolation_fraction",
        "response_matrix.py",
        "frac = (np.arange(lo + 1, hi) - lo) / (hi - lo)",
        "frac = (np.arange(lo + 1, hi) - lo) / (hi - lo + 1)",
        ("test_response_matrix.py",),
    ),
    Mutant(
        "response_matrix.row_sum_tolerance",
        "response_matrix.py",
        "_ROW_SUM_TOL = 1e-9",
        "_ROW_SUM_TOL = 1e-3",
        ("test_response_matrix.py",),
    ),
    Mutant(
        "baseline.simulated_margin_binomial_error",
        "baseline.py",
        "z * np.sqrt(n_det) / k",
        "z * np.sqrt(n_det * (1.0 - p_hat)) / k",
        ("test_baseline.py",),
    ),
    Mutant(
        "baseline.shots_rounded_down",
        "baseline.py",
        "return math.ceil((_z_factor(convention)",
        "return math.floor((_z_factor(convention)",
        ("test_baseline.py",),
    ),
    Mutant(
        "response_matrix.non_utf8_file_escapes_as_a_usage_error",
        "response_matrix.py",
        "except UnicodeDecodeError as exc:",
        "except () as exc:",
        ("test_cli.py::test_non_utf8_input_file_is_named_in_the_error",),
    ),
    Mutant(
        "cli.unsupported_exit_code",
        "cli.py",
        '(ModelUnsupportedError, 4, "unsupported by this model")',
        '(ModelUnsupportedError, 5, "unsupported by this model")',
        ("test_cli.py::test_infer_count_above_cutoff", "test_cli.py::test_infer_on_mechanistic_matrix_enforces_cutoff"),
    ),
    Mutant(
        "cli.energy_from_width_minus_one",
        "cli.py",
        '"energy_j": interval_to_energy(interval.width, args.wavelength)',
        '"energy_j": interval_to_energy(interval.width - 1, args.wavelength)',
        ("test_cli.py",),
    ),
    Mutant(
        "response_matrix.from_token_takes_any_mc_stream",
        "response_matrix.py",
        "if parts[0] == MC_KERNEL and len(parts) == 3:",
        'if parts[0].startswith("mc") and len(parts) == 3:',
        ("test_response_matrix.py::test_a_retired_stream_token_is_refused",),
    ),
    Mutant(
        "mc_engine.chunk_window_is_the_whole_run",
        "mc_engine.py",
        "window = 2 * n_workers",
        "window = n_chunks",
        # The pool then takes every chunk at once: about 240 MB at 10**9 shots before the failing chunk stops it.
        ("test_mc_engine.py::test_a_failing_chunk_stops_the_run_whatever_its_shot_count",),
    ),
    Mutant(
        "cli.infer_keeps_its_files_on_a_file_error",
        "cli.py",
        "path.unlink()",
        "pass",
        ("test_cli.py::test_infer_file_error_leaves_no_output",),
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import binflux; print(binflux.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"binflux imports from {where}, not from the copy under {src}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "binflux" / mutant.module
    text = path.read_text()
    if text.count(mutant.original) != 1:
        raise SystemExit(
            f"{mutant.name}: {mutant.original!r} occurs {text.count(mutant.original)} times in "
            f"src/binflux/{mutant.module}, expected once; update the catalogue"
        )
    path.write_text(text.replace(mutant.original, mutant.mutated))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="binflux-mutants-") as tmp:
        files = sorted({t for m in MUTANTS for t in m.tests})
        clean = _pytest(_copy_src(Path(tmp) / "clean"), files)
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:], sep="\n")
            print(f"the named tests fail on the unmutated source (pytest exit {clean.returncode})")
            return 2
        failures = []
        for i, mutant in enumerate(MUTANTS):
            start = time.perf_counter()
            src = _copy_src(Path(tmp) / f"m{i}")
            _apply(mutant, src)
            proc = _pytest(src, mutant.tests)
            if proc.returncode not in (0, 1):
                print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
                raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}, neither pass nor fail")
            survived = proc.returncode == 0
            verdict = "killed" if not survived else "equivalent" if mutant.equivalent else "SURVIVED"
            print(f"{verdict:10s} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if survived and not mutant.equivalent:
                failures.append(mutant.name)
            if not survived and mutant.equivalent:
                failures.append(f"{mutant.name} (listed as equivalent, but a test kills it)")
    killed = len(MUTANTS) - len(failures)
    print(f"{killed} of {len(MUTANTS)} mutants killed or equivalent")
    for name in failures:
        print(f"not killed as listed: {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
