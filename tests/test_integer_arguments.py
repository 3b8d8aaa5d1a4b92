"""One rule for every integer argument of the public entries (errors._integer).

A bool, a float (a whole one too) or a value below the parameter's lower
bound raises ValueError naming the parameter, and a numpy integer gives a
result bit-identical to the Python int of the same value.
"""

import functools
import pickle
import re

import numpy as np
import pytest

from binflux import (
    Coherent,
    Fock,
    baseline_error_curve,
    build_matrix,
    get_preset,
    posterior_multi,
    relative_error_curve,
    shot_dark_probability,
    simulate_baseline,
    simulate_batch,
    stability_max_n,
)
from binflux.cli import main
from binflux.mc_engine import simulate_rows

RAPID32 = get_preset("rapid32")
# The largest numpy array dimension: a matrix has mu_max + 1 rows, and the stability grid 2 * mu_max + 1.
DIMENSION = int(np.iinfo(np.intp).max)


@functools.cache
def _matrix():
    return build_matrix(RAPID32, 20)


def _batch(n_shots=40, seed=3, **options):
    return simulate_batch(Coherent(5.0), RAPID32.bin_weights(), RAPID32.detector, n_shots, seed, **options)


def _rows(n_shots=40, **options):
    sources = [Coherent(1.0), Coherent(5.0)]
    return simulate_rows(sources, RAPID32.bin_weights(), RAPID32.detector, n_shots, 3, **options)


def _curve(max_shots=5, n_trials=2, **options):
    return relative_error_curve(RAPID32, _matrix(), 5.0, max_shots, n_trials, 1, **options)


def _fock(n_photons):
    return simulate_batch(Fock(n_photons), RAPID32.bin_weights(), RAPID32.detector, 40, 1)


# Parameter name as the message gives it, its bounds, a valid value, and the call it enters.
ENTRIES = [
    pytest.param("seed", 0, None, 7, lambda v: _batch(seed=v, store_totals=True), id="seed"),
    pytest.param("Fock.n_photons", 0, None, 3, _fock, id="fock"),
    pytest.param("click count", 0, 32, 3, lambda v: posterior_multi(_matrix(), [2, v]), id="click-count"),
    pytest.param("n_shots", 1, None, 40, lambda v: _batch(n_shots=v, store_totals=True), id="batch-shots"),
    pytest.param("start_shot", 0, None, 7, lambda v: _batch(start_shot=v, store_totals=True), id="batch-start"),
    pytest.param("workers", 1, None, 2, lambda v: _batch(20_000, workers=v, store_totals=True), id="batch-workers"),
    pytest.param("n_shots", 1, None, 40, lambda v: _rows(n_shots=v, store_totals=True), id="rows-shots"),
    pytest.param("start_shot", 0, None, 7, lambda v: _rows(start_shot=v, store_totals=True), id="rows-start"),
    pytest.param("workers", 1, None, 2, lambda v: _rows(20_000, workers=v), id="rows-workers"),
    pytest.param("mu_max", 1, DIMENSION - 1, 5, lambda v: build_matrix(RAPID32, v), id="matrix-mu-max"),
    pytest.param("n_shots", 1, None, 100, lambda v: build_matrix(RAPID32, 5, "mc", n_shots=v, seed=2), id="matrix-shots"),
    # An exact matrix uses none of these three, but a bad one is still refused.
    pytest.param("n_shots", 1, None, 100, lambda v: build_matrix(RAPID32, 5, n_shots=v), id="exact-matrix-shots"),
    pytest.param("seed", 0, None, 2, lambda v: build_matrix(RAPID32, 5, seed=v), id="exact-matrix-seed"),
    pytest.param("workers", 1, None, 2, lambda v: build_matrix(RAPID32, 5, workers=v), id="exact-matrix-workers"),
    pytest.param("support[1]", 0, 10, 6, lambda v: build_matrix(RAPID32, 10, support=[3, v]), id="matrix-support"),
    pytest.param("max_shots", 1, None, 5, lambda v: _curve(max_shots=v), id="curve-shots"),
    pytest.param("n_trials", 1, None, 2, lambda v: _curve(n_trials=v), id="curve-trials"),
    # The curve draws without threads, but a bad worker count is still refused.
    pytest.param("workers", 1, None, 2, lambda v: _curve(workers=v), id="curve-workers"),
    # -1 is stability_max_n's cutoff when no count is stable: it admits no count.
    pytest.param("max_admissible_n", -1, None, 16, lambda v: _curve(max_admissible_n=v), id="curve-cutoff"),
    pytest.param(
        "max_admissible_n", -1, None, 16, lambda v: posterior_multi(_matrix(), [3, 5], max_admissible_n=v),
        id="posterior-cutoff",
    ),
    pytest.param("max_shots", 1, None, 5, lambda v: baseline_error_curve(100.0, v), id="baseline-curve-shots"),
    pytest.param("max_shots", 1, None, 5, lambda v: simulate_baseline(100.0, 0.165, v, 2, 1), id="baseline-shots"),
    pytest.param("n_trials", 1, None, 2, lambda v: simulate_baseline(100.0, 0.165, 5, v, 1), id="baseline-trials"),
    pytest.param(
        "bins_per_detector", 0, DIMENSION, 16, lambda v: shot_dark_probability(RAPID32.detector, v), id="dark"
    ),
    pytest.param("mu_max", 1, (DIMENSION - 1) // 2, 5, lambda v: stability_max_n(RAPID32, v), id="stability-mu-max"),
]


@pytest.mark.parametrize("name, lo, hi, good, call", ENTRIES)
@pytest.mark.parametrize("kind", ["True", "2.5", "float64(3.0)", "lo-1"])
def test_a_bad_integer_argument_names_its_parameter(name, lo, hi, good, call, kind):
    value = {"True": True, "2.5": 2.5, "float64(3.0)": np.float64(3.0), "lo-1": lo - 1}[kind]
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer {bound}, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("name, lo, hi, good, call", ENTRIES)
def test_an_int_too_long_to_print_is_refused_by_its_digit_count(name, lo, hi, good, call):
    # repr itself raises ValueError past Python's 4300-digit limit, so the refusal used to escape as that.
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    message = f"{name} must be an integer {bound}, got an int of 5001 digits"
    for value in [-(10**5000)] + ([10**5000] if hi is not None else []):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("name, lo, hi, good, call", [entry for entry in ENTRIES if entry.values[2] is not None])
def test_one_past_the_upper_bound_is_refused(name, lo, hi, good, call):
    # Before, build_matrix and stability_max_n raised OverflowError for 10**400 rows, and
    # shot_dark_probability OverflowError for a gate count past the largest double.
    for value in (hi + 1, 10**400):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be an integer in [{lo}, {hi}], got {value}"


@pytest.mark.parametrize("name, lo, hi, good, call", ENTRIES)
def test_a_numpy_integer_gives_the_result_of_its_int(name, lo, hi, good, call):
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--mu", "5", "--seed", "1", "--shots", "0"], "n_shots must be an integer >= 1, got 0"),
        (["simulate", "--mu", "5", "--seed", "1", "--shots", "10", "--workers", "0"],
         "workers must be an integer >= 1, got 0"),
        (["simulate", "--fock", "-1", "--seed", "1", "--shots", "10"],
         "Fock.n_photons must be an integer >= 0, got -1"),
        (["compare", "--mu", "100", "--seed", "1", "--mu-max", "20", "--max-shots", "0"],
         "max_shots must be an integer >= 1, got 0"),
        (["compare", "--mu", "100", "--seed", "1", "--mu-max", "20", "--trials", "0"],
         "n_trials must be an integer >= 1, got 0"),
        (["sweep", "--over", "mu", "--values", "1,5", "--seed", "1", "--shots", "0"],
         "n_shots must be an integer >= 1, got 0"),
        (["matrix", "--mu-max", "5", "--shots", "0", "--workers", "0"], "n_shots must be an integer >= 1, got 0"),
        (["matrix", "--mu-max", "5", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["matrix", "--mu-max", "5", "--workers", "0"], "workers must be an integer >= 1, got 0"),
        # Before, a shot count this large wrapped the stream, and one past 2**63 raised OverflowError.
        (["simulate", "--mu", "5", "--seed", "1", "--shots", str(10**400)],
         f"start_shot + n_shots must be at most {2**124}, the stream's 2**128 words at 16 lanes per shot, "
         f"got 0 + {10**400}"),
    ],
    ids=[
        "simulate-shots", "simulate-workers", "simulate-fock", "compare-max-shots", "compare-trials", "sweep-shots",
        "exact-matrix-shots", "exact-matrix-seed", "exact-matrix-workers", "simulate-shots-past-the-stream",
    ],
)
def test_a_bad_integer_option_exits_2_before_writing(tmp_path, capsys, argv, message):
    assert main([*argv, "--preset", "rapid32", "-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"binflux: usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_cutoff_of_minus_one_admits_no_count(tmp_path, capsys):
    # stability_max_n answers -1 when no count is stable on the grid; infer then
    # refuses every count as unsupported by the model (exit 4), not as a usage error.
    assert stability_max_n(RAPID32, 5) == -1
    matrix = tmp_path / "m.csv"
    assert main(["matrix", "--preset", "rapid32", "--mu-max", "5", "-o", str(matrix)]) == 0
    capsys.readouterr()
    assert main(["infer", "-m", str(matrix), "--n", "0"]) == 4
    refusal = "binflux: unsupported by this model: click count 0 exceeds the stability cutoff -1 "
    assert capsys.readouterr().err.startswith(refusal)
