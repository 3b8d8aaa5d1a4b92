"""The response matrix: p(n clicks | mu), one row per integer mu.

This matrix is the forward model that inference inverts. It can be built
exactly (fast for coherent light, for every detector model), by Monte
Carlo (sampled rows, each reproducible from its recorded seed), or from a
sparse support with interpolation in between.
"""

import tempfile
from pathlib import Path

import numpy as np

from binflux import (
    build_matrix,
    fingerprint,
    get_preset,
    load_matrix,
    save_matrix,
    validate_interpolation,
)

system = get_preset("rapid32")

matrix = build_matrix(system, mu_max=400, method="exact")
rows = matrix.rows
print(f"== exact matrix: {rows.shape[0]} rows (mu=0..400) x {rows.shape[1]} click counts")
print(f"   worst row normalization error: {np.abs(rows.sum(axis=1) - 1).max():.1e}")

mean_clicks = rows @ np.arange(rows.shape[1])
print("   mean clicks by mu:", ", ".join(f"mu={m}: {mean_clicks[m]:.2f}" for m in (1, 10, 100, 400)))
print(f"   strictly increasing in mu: {bool(np.all(np.diff(mean_clicks) > 0))}")
print(f"   saturation: E[n|400] = {mean_clicks[400]:.2f} of {matrix.num_bins} bins")

# Sparse support plus interpolation: 12 computed rows instead of 401.
support = [0, 1, 2, 3, 5, 8, 13, 25, 50, 100, 200, 400]
sparse = build_matrix(system, mu_max=400, method="exact", support=support)
report = validate_interpolation(system, sparse, [4, 10, 40, 150, 300])
print(f"== sparse support {support}")
for mu, tv in report:
    print(f"   interpolated row mu={mu}: TV vs exact {tv:.4f}")

# Row provenance records how each row was produced.
print("   provenance samples:", sparse.provenance[2].token(), "|", sparse.provenance[150].token())

# Files are self-describing: config, fingerprint, and provenance travel
# with the numbers, and save -> load -> save is byte-identical.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "rapid32.csv"
    save_matrix(matrix, path)
    again = load_matrix(path)
    path2 = Path(tmp) / "again.csv"
    save_matrix(again, path2)
    print(f"== file round trip: byte-identical {path.read_bytes() == path2.read_bytes()}")
    print(f"   embedded fingerprint matches config: {again.fingerprint == fingerprint(system)}")
    print(f"   header: {path.read_text().splitlines()[0]}")

# Monte Carlo rows carry their shot count and per-row seed, so any single
# row can be reproduced standalone.
mc = build_matrix(system, mu_max=5, method="mc", n_shots=20_000, seed=42)
print(f"== MC matrix row 3 provenance: {mc.provenance[3].token()}")
