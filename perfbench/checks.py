"""Correctness checks shared by the workloads and the smoke test.

Each check returns a list of problems; an empty list means the output
passed. The bounds are loose enough that a correct kernel passes on any
seed and tight enough that a visibly wrong histogram fails.
"""

from __future__ import annotations

import math

import numpy as np

import binflux as bf

SUM_TOL = 1e-9  # how far a probability row may sum from 1
ORACLE_TOL = 1e-12  # how far an exact row may differ from coherent_click_distribution


def tv_bound(n_bins: int, n_shots: float) -> float:
    """TV allowance for an n-shot histogram over n_bins outcomes.

    The expected TV of an empirical distribution is at most
    0.5 * sqrt(n_bins / n_shots) (Cauchy-Schwarz over the per-bin standard
    errors); the bound doubles it.
    """
    return math.sqrt(n_bins / n_shots)


def hist_within_tv(histogram: np.ndarray, exact: np.ndarray) -> list[str]:
    """Empirical histogram within tv_bound of the exact distribution."""
    histogram = np.asarray(histogram, dtype=float)
    n = float(histogram.sum())
    if histogram.shape != exact.shape or n <= 0:
        return [f"histogram shape {histogram.shape} or total {n} does not fit the oracle {exact.shape}"]
    tv = 0.5 * float(np.abs(histogram / n - exact).sum())
    bound = tv_bound(exact.size, n)
    return [] if tv <= bound else [f"TV {tv:.5f} from the exact law exceeds {bound:.5f} at {n:.0f} shots"]


def rows_sum_to_one(rows: np.ndarray) -> list[str]:
    rows = np.asarray(rows, dtype=float)
    problems = []
    if not np.isfinite(rows).all() or (rows < 0).any():
        problems.append("rows hold negative or non-finite values")
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if worst > SUM_TOL:
        problems.append(f"a row sums to 1 only within {worst:.3g}")
    return problems


def matrix_matches_oracle(matrix, weights, detector) -> list[str]:
    """Rows sum to 1 and every exact row equals coherent_click_distribution."""
    problems = rows_sum_to_one(matrix.rows)
    for mu, prov in enumerate(matrix.provenance):
        if prov.kind != "exact":
            continue
        exact = bf.coherent_click_distribution(float(mu), weights, detector).probs
        diff = float(np.abs(matrix.rows[mu] - exact).max())
        if diff > ORACLE_TOL:
            problems.append(f"row {mu} differs from the exact oracle by {diff:.3g}")
            break
    return problems
