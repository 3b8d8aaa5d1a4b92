"""Pinned exact-layer and inference outputs.

These digests were recorded once, before the exact matrix, the stability
cutoff and the convergence curve were computed array-at-once. Any change
to the order of the floating-point operations behind them changes a
digest, so a rewrite that is meant to keep every output bit fails here if
it does not. The sparse MC matrix draws Monte Carlo shots; its digest was
recorded again for the mc4 stream, and once more when every Monte Carlo
row came to share one seed and one word stream. The convergence curve's
was recorded again for the mc4 stream, and once more when its counts came
to be inverse-CDF draws from the exact law.
"""

import hashlib

import numpy as np
import pytest

from binflux import build_matrix, get_preset, relative_error_curve, stability_max_n

SPARSE_EXACT_SUPPORT = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
SPARSE_MC_SUPPORT = [100, 200, 300]


def _digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()


def _provenance_digest(matrix) -> str:
    return hashlib.sha256(";".join(p.token() for p in matrix.provenance).encode()).hexdigest()


# name -> (preset, mu_max, sha256 of the rows as <f8)
EXACT_ROWS = {
    "rapid32.400": ("rapid32", 400, "12896851a20f8202e288d1b6611071068f0a62709986988f1cb468d30b492451"),
    "rapid32.4000": ("rapid32", 4000, "0c18c0507e34fb71f57d83b497e39db188016f5abf63a918c21c61360fa5bca3"),
    "conventional16.1000": (
        "conventional16", 1000, "b2a98f7a2dfff9ae9a08c03a9128a777b74be0701c558e0189040a0f0100bf03",
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_ROWS))
def test_exact_matrix_rows_are_pinned(name):
    preset, mu_max, expected = EXACT_ROWS[name]
    assert _digest(build_matrix(get_preset(preset), mu_max).rows) == expected


def test_mechanistic_exact_matrix_rows_are_pinned(mechanistic32):
    # The undershoot chain (p_miss 0.3), recorded again when the chain began
    # to run its gates detector-major; the rows moved by at most 2.8e-16.
    m = build_matrix(mechanistic32, 100)
    assert _digest(m.rows) == "6f1a2dd775644b7c1f9c17e6d6fc5ac8dca8b37f89de8fd8bb97777044e993f9"


def test_sparse_exact_matrix_is_pinned(rapid32):
    m = build_matrix(rapid32, 2000, support=SPARSE_EXACT_SUPPORT)
    assert _digest(m.rows) == "6c791738c4bdfa405244c72ee3e8bc32d701e8b8519f4576bb051d38bea4434c"
    assert _provenance_digest(m) == "596889573a8c4be802240ecd515efb6d73072772a038594aad881e337684278a"


def test_sparse_mc_matrix_is_pinned(rapid32):
    m = build_matrix(rapid32, 400, "mc", n_shots=20_000, seed=11, support=SPARSE_MC_SUPPORT, workers=1)
    assert _digest(m.rows) == "b5ec9f56403c9347c9682f1a603e8218f6e2cc409125cab1d66c5c86bf489f14"
    assert _provenance_digest(m) == "eccd7a822adf7f45f3ab6f0dfc3c478d17cfa856feca97c2861895b478181ccd"


@pytest.mark.parametrize(
    "preset, mu_max, cutoff",
    [("rapid32", 400, 16), ("rapid32", 4000, 31), ("conventional16", 1000, 13), ("conventional16", 200, 4)],
)
def test_stability_cutoffs_are_pinned(preset, mu_max, cutoff):
    assert stability_max_n(get_preset(preset), mu_max) == cutoff


def test_relative_error_curve_is_pinned(rapid32, rapid32_matrix400):
    curve = relative_error_curve(
        rapid32, rapid32_matrix400, 100.0, 400, 10, 42, max_admissible_n=16, workers=1
    )
    assert curve.rel_err.shape == (10, 400)
    assert _digest(curve.rel_err) == "aafbf036fe4db346e3552bed02d3066573d7fecc7245f1cb19ad8e815a1f6a2c"
