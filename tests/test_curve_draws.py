"""The convergence curve's click counts: inverse-CDF draws from the exact law, truncated at the cutoff.

relative_error_curve runs no Monte Carlo kernel. Trial t inverts the CDF of
the system's exact click-count law, truncated at the stability cutoff and
renormalised, at one 53-bit lane per shot of the stream of
derive_seed(seed, t) (inference._curve_counts).
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import LAW_ALPHA, assert_law

import binflux.inference as inference
import binflux.mc_engine as mc_engine
from binflux import DegenerateEvidenceError, build_matrix, relative_error_curve, stability_max_n
from binflux.exact_oracle import coherent_click_rows


def _law(system, mus):
    return coherent_click_rows(mus, system.bin_weights(), system.detector)


@pytest.mark.parametrize(
    "name, mu",
    [("rapid32", 100.0), ("rapid32", 300.0), ("conventional16", 100.0), ("rapid32-mechanistic", 100.0)],
)
def test_drawn_counts_follow_the_exact_truncated_law(rapid32, conventional16, mechanistic32, name, mu):
    system = {s.name: s for s in (rapid32, conventional16, mechanistic32)}[name]
    cutoff = stability_max_n(system, 400)
    counts = inference._curve_counts(system, mu, cutoff, 2000, 20, 3)
    law = _law(system, mu)[: cutoff + 1]
    eps = assert_law(np.bincount(counts.ravel()), law / law.sum(), LAW_ALPHA)
    # At N = 40,000 draws, any CDF 2 eps = 0.033 or more off the law fails.
    assert eps == pytest.approx(0.0164, abs=1e-4)


def test_a_count_is_the_number_of_cdf_values_at_or_below_its_uniform(monkeypatch, rapid32):
    # Lanes at each 53-bit threshold and one below it, and the extreme lanes:
    # a uniform u equal to a CDF value F(n) falls past n, as u < F(n) decides.
    mu, cutoff = 10.0, 16
    cdf = np.cumsum(_law(rapid32, mu)[: cutoff + 1])
    cdf /= cdf[-1]
    tops = np.ceil(np.ldexp(cdf, 53))
    tops = tops[(tops > 0) & (tops < 2.0**53)].astype(np.uint64)
    lanes = np.concatenate([tops, tops - np.uint64(1), np.array([0, 2**53 - 1], dtype=np.uint64)])
    words = lanes << np.uint64(11) | np.uint64(2**11 - 1)  # the low 11 bits are never read

    def crafted(seq, start_shot, n_shots, n_lanes):
        assert (start_shot, n_shots, n_lanes) == (0, words.size, 1)
        return words[:, None].copy()

    monkeypatch.setattr(inference, "uniform_lanes", crafted)
    counts = inference._curve_counts(rapid32, mu, cutoff, words.size, 1, 1)[0]
    u = lanes * 2.0**-53
    assert counts.tolist() == [int((cdf <= x).sum()) for x in u]
    assert counts.max() == cutoff


def test_a_trial_does_not_depend_on_the_trial_count_or_on_later_shots(rapid32, rapid32_matrix400):
    small = inference._curve_counts(rapid32, 100.0, 16, 60, 3, 4)
    large = inference._curve_counts(rapid32, 100.0, 16, 150, 7, 4)
    assert np.array_equal(large[:3, :60], small)
    # Each trial reads its own stream.
    assert len({trial.tobytes() for trial in large}) == 7
    a = relative_error_curve(rapid32, rapid32_matrix400, 100.0, 60, 3, 4, max_admissible_n=16).rel_err
    b = relative_error_curve(rapid32, rapid32_matrix400, 100.0, 150, 7, 4, max_admissible_n=16).rel_err
    assert a.tobytes() == b[:3, :60].tobytes()


def _imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_the_curve_runs_no_monte_carlo_kernel(monkeypatch, rapid32, rapid32_matrix400):
    def refuse(*args, **kwargs):
        raise AssertionError("relative_error_curve reached the Monte Carlo kernel")

    for name in ("simulate_batch", "simulate_rows", "_Kernel"):
        monkeypatch.setattr(mc_engine, name, refuse)
    curve = relative_error_curve(rapid32, rapid32_matrix400, 100.0, 40, 3, 1, max_admissible_n=16, workers=1)
    assert curve.rel_err.shape == (3, 40)
    assert not {n for n in _imported_names(Path(inference.__file__)) if n.split(".")[-1] == "mc_engine"}


def test_a_matrix_of_another_bin_count_is_refused(rapid32, mechanistic32, rapid32_matrix400, conventional16):
    # Before, counts above bin 16 were read as the 16-bin matrix's last column, and a curve came back.
    with pytest.raises(ValueError) as exc:
        relative_error_curve(rapid32, build_matrix(conventional16, 100), 100.0, 20, 2, 1, max_admissible_n=30)
    assert str(exc.value) == "matrix: has 16 bins, but system draws counts over 32"
    # A truth system other than the matrix's own, with its bin count, is a misspecification study.
    curve = relative_error_curve(mechanistic32, rapid32_matrix400, 100.0, 20, 2, 1, max_admissible_n=16)
    assert curve.rel_err.shape == (2, 20)


def test_the_admissible_mass_floor_decides_the_refusal(rapid32, rapid32_matrix400):
    # K = P(N <= cutoff | mu): the largest cutoff at mu 100 with K below
    # 2^-10 is refused, whole message, and the next one is drawn from.
    mass = np.cumsum(_law(rapid32, 100.0))
    below = int(np.flatnonzero(mass < 2.0**-10)[-1])
    assert mass[below + 1] >= 2.0**-10
    message = (
        f"stability cutoff {below} rejects nearly every shot at mu=100.0; the mu grid is too small for this source"
    )
    with pytest.raises(DegenerateEvidenceError, match=f"^{re.escape(message)}$"):
        relative_error_curve(rapid32, rapid32_matrix400, 100.0, 10, 2, 1, max_admissible_n=below)
    curve = relative_error_curve(rapid32, rapid32_matrix400, 100.0, 10, 2, 1, max_admissible_n=below + 1)
    assert curve.rel_err.shape == (2, 10)
    # Near the grid edge the stable cutoff still admits enough: K is 0.068 at mu 300 and 0.0038 at mu 400.
    k300, k400 = np.cumsum(_law(rapid32, [300.0, 400.0]), axis=1)[:, 16]
    assert (round(k300, 3), round(k400, 4)) == (0.068, 0.0038)
    for mu in (300.0, 400.0):
        relative_error_curve(rapid32, rapid32_matrix400, mu, 5, 2, 1, max_admissible_n=16)
