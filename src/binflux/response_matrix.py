"""Detector response matrix: P(k clicks | coherent pulse of mean mu).

Rows are indexed by integer mu from 0 to mu_max. Each row is either computed
exactly, estimated by Monte Carlo, or linearly interpolated between two
support rows; per-row provenance is kept and survives save/load.

File formats (both carry the full system configuration, so a matrix file is
self-describing; the tests and CI pin their bytes):

* CSV: three comment lines (header with fingerprint, embedded config JSON,
  per-row provenance), a column-name line, then one row per mu, each cell
  written with "%.17g".
* JSON: the same content as one object, in the layout of json.dumps with
  sort_keys=True and indent=1, floats written by repr.

The SHA-256 fingerprint of the canonical configuration JSON ties a matrix
file to the system that produced it.
"""

from __future__ import annotations

import contextlib
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import derive_seed
from .config import SystemConfig, canonical_json, fingerprint, system_from_dict, system_to_dict
from .errors import _DIMENSION, ConfigurationError, MatrixFormatError, _integer, _shown
from .exact_oracle import coherent_click_rows
from .mc_engine import MC_KERNEL, BatchResult, Coherent, simulate_rows

_FORMAT_VERSION = 1
_ROW_SUM_TOL = 1e-9
_HEADER_RE = re.compile(
    r"^# binflux-matrix v(\d+), fingerprint=([0-9a-f]{64}), mu_max=(\d+), bins=(\d+), method=(\w+)$"
)


@dataclass(frozen=True)
class RowProvenance:
    """How one row was obtained: exact formula, Monte Carlo (of the MC_KERNEL stream), or interpolation."""

    kind: str
    n_shots: int | None = None
    seed: int | None = None
    mu_lo: int | None = None
    mu_hi: int | None = None

    def token(self) -> str:
        if self.kind == "exact":
            return "exact"
        if self.kind == "mc":
            return f"{MC_KERNEL}:{self.n_shots}:{self.seed}"
        return f"interp:{self.mu_lo}:{self.mu_hi}"

    @staticmethod
    def from_token(token: str) -> "RowProvenance":
        parts = str(token).split(":")
        try:
            if parts[0] == "exact" and len(parts) == 1:
                return RowProvenance(kind="exact")
            if parts[0] == MC_KERNEL and len(parts) == 3:
                return RowProvenance(kind="mc", n_shots=int(parts[1]), seed=int(parts[2]))
            if parts[0] == "interp" and len(parts) == 3:
                return RowProvenance(kind="interpolated", mu_lo=int(parts[1]), mu_hi=int(parts[2]))
        except ValueError:
            pass
        raise MatrixFormatError(f"provenance: unrecognized token {token!r}")


@dataclass
class ResponseMatrix:
    """Rows P(k | mu), mu = 0..mu_max; mu_max (row count - 1) and fingerprint (of system) are derived."""

    system: SystemConfig
    rows: np.ndarray
    provenance: tuple[RowProvenance, ...]
    method: str
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        n_rows = self.rows.shape[0] if self.rows.ndim else 0
        if self.rows.ndim != 2 or n_rows != len(self.provenance):
            message = f"rows: expected shape ({len(self.provenance)}, bins + 1), got {self.rows.shape}"
            if n_rows != len(self.provenance):
                message += f"; provenance: expected {n_rows} entries, got {len(self.provenance)}"
            raise MatrixFormatError(message)
        _check_rows(self.rows, lambda i: f"row {i}")
        self.rows.setflags(write=False)
        self.fingerprint = fingerprint(self.system)

    @property
    def mu_max(self) -> int:
        return self.rows.shape[0] - 1

    @property
    def num_bins(self) -> int:
        return self.rows.shape[1] - 1


def mc_rows(
    system: SystemConfig, mus: list[int], n_shots: int, seed: int, *, workers: int | None = None
) -> tuple[int, list[BatchResult]]:
    """Monte Carlo rows at the coherent means mus, on common random numbers: (row seed, batches).

    The one seeding rule of Monte Carlo rows: every row is seeded with
    derive_seed(seed), which depends on the user seed alone, and all rows
    are decided on the same stream words (mc_engine.simulate_rows). Batch i
    is bit-identical to simulate_batch(Coherent(mus[i]), ..., row seed), so
    a row's provenance token reproduces it, and the row at mu does not
    depend on which other means are built with it.
    """
    row_seed = derive_seed(seed)
    sources = [Coherent(mu) for mu in mus]
    return row_seed, simulate_rows(sources, system.bin_weights(), system.detector, n_shots, row_seed, workers=workers)


def build_matrix(
    system: SystemConfig,
    mu_max: int,
    method: str = "exact",
    *,
    n_shots: int = 1_000_000,
    seed: int | None = None,
    support: list[int] | None = None,
    workers: int | None = None,
) -> ResponseMatrix:
    """Build the response matrix for integer mu in [0, mu_max].

    support restricts direct computation to the given mu values (0 and
    mu_max are always added); remaining rows are interpolated per click
    count and renormalized. method "mc" needs a seed: every direct row is
    then seeded with derive_seed(seed) and all of them are decided on the
    same stream words (mc_rows), so row mu is the same whatever mu_max and
    support are, and neighbouring rows' sampling errors are positively
    correlated. A bad argument raises ValueError.
    """
    mu_max = _integer(mu_max, "mu_max", 1, _DIMENSION - 1)
    if method not in ("exact", "mc"):
        raise ValueError(f"method: expected 'exact' or 'mc', got {_shown(method)}")
    if method == "mc" and seed is None:
        raise ValueError("seed: required when method='mc'")
    # Checked whatever the method, so a bad value is never recorded beside an exact matrix.
    n_shots = _integer(n_shots, "n_shots", 1)
    if seed is not None:
        _integer(seed, "seed")
    if workers is not None:
        _integer(workers, "workers", 1)

    if support is None:
        direct_mus = list(range(mu_max + 1))
    else:
        direct_mus = sorted({_integer(m, f"support[{i}]", 0, mu_max) for i, m in enumerate(support)} | {0, mu_max})

    weights = system.bin_weights()
    n_bins = weights.num_bins
    rows = np.zeros((mu_max + 1, n_bins + 1))
    prov: list[RowProvenance] = [RowProvenance(kind="interpolated")] * (mu_max + 1)

    if method == "exact":
        rows[direct_mus] = coherent_click_rows(direct_mus, weights, system.detector)
        exact = RowProvenance(kind="exact")
        for mu in direct_mus:
            prov[mu] = exact
    else:
        row_seed, batches = mc_rows(system, direct_mus, n_shots, seed, workers=workers)
        rows[direct_mus] = [batch.distribution for batch in batches]
        mc = RowProvenance(kind="mc", n_shots=n_shots, seed=row_seed)
        for mu in direct_mus:
            prov[mu] = mc

    for lo, hi in zip(direct_mus[:-1], direct_mus[1:]):
        if hi - lo < 2:
            continue
        frac = (np.arange(lo + 1, hi) - lo) / (hi - lo)
        seg = (1.0 - frac)[:, None] * rows[lo] + frac[:, None] * rows[hi]
        rows[lo + 1 : hi] = seg / seg.sum(axis=1, keepdims=True)
        prov[lo + 1 : hi] = [RowProvenance(kind="interpolated", mu_lo=lo, mu_hi=hi)] * (hi - lo - 1)

    return ResponseMatrix(system=system, rows=rows, provenance=tuple(prov), method=method)


def validate_interpolation(
    system: SystemConfig, matrix: ResponseMatrix, mus: list[int] | None = None
) -> list[tuple[int, float]]:
    """Total-variation distance of interpolated rows from fresh exact rows."""
    if mus is None:
        mus = [mu for mu, p in enumerate(matrix.provenance) if p.kind == "interpolated"]
    exact = coherent_click_rows(mus, system.bin_weights(), system.detector)
    tv = 0.5 * np.abs(matrix.rows[mus] - exact).sum(axis=1)
    return [(mu, float(d)) for mu, d in zip(mus, tv)]


def save_matrix(matrix: ResponseMatrix, path: str | Path) -> None:
    """Write the matrix to .csv or .json (chosen by extension)."""
    path = Path(path)
    if path.suffix == ".csv":
        lines = [
            f"# binflux-matrix v{_FORMAT_VERSION}, fingerprint={matrix.fingerprint}, "
            f"mu_max={matrix.mu_max}, bins={matrix.num_bins}, method={matrix.method}",
            "# config: " + canonical_json(matrix.system),
            "# provenance: " + ";".join(p.token() for p in matrix.provenance),
            "mu," + ",".join(f"p{k}" for k in range(matrix.num_bins + 1)),
        ]
        row = "%d," + ",".join(["%.17g"] * (matrix.num_bins + 1))
        lines += [row % (mu, *cells) for mu, cells in enumerate(matrix.rows.tolist())]
        path.write_text("\n".join(lines) + "\n")
    elif path.suffix == ".json":
        doc = {
            "format": "binflux-matrix",
            "version": _FORMAT_VERSION,
            "fingerprint": matrix.fingerprint,
            "mu_max": matrix.mu_max,
            "bins": matrix.num_bins,
            "method": matrix.method,
            "config": system_to_dict(matrix.system),
            "provenance": [p.token() for p in matrix.provenance],
            "rows": None,  # spliced in below: only a top-level key sits one space in
        }
        head, _, tail = json.dumps(doc, sort_keys=True, indent=1).partition('\n "rows": null')
        row = "[\n   " + ",\n   ".join(["%r"] * (matrix.num_bins + 1)) + "\n  ]"
        rows = ",\n  ".join([row % tuple(cells) for cells in matrix.rows.tolist()])
        path.write_text(f'{head}\n "rows": [\n  {rows}\n ]{tail}\n')
    else:
        raise ValueError(f"unsupported matrix extension {path.suffix!r} (use .csv or .json)")


def _check_rows(rows: np.ndarray, where) -> None:
    """Raise MatrixFormatError at where(i) for the first row i that is not a probability vector."""
    finite = np.isfinite(rows).all(axis=1)
    negative = (rows < 0.0).any(axis=1)
    sums = rows.sum(axis=1)
    bad = np.flatnonzero(~finite | negative | (np.abs(sums - 1.0) > _ROW_SUM_TOL))
    if bad.size:
        i = bad[0]
        if not finite[i]:
            problem = "non-finite probability"
        elif negative[i]:
            problem = "negative probability"
        else:
            problem = f"probabilities sum to {sums[i]:.17g}, expected 1 within {_ROW_SUM_TOL:g}"
        raise MatrixFormatError(f"{where(i)}: {problem}") from None


def _parse_tokens(tokens) -> tuple[RowProvenance, ...]:
    """RowProvenance.from_token of each token, once per distinct str(token): a JSON token may be unhashable."""
    keys, parsed = list(map(str, tokens)), {}
    for key, token in zip(keys, tokens):
        if key not in parsed:
            parsed[key] = RowProvenance.from_token(token)
    return tuple(map(parsed.__getitem__, keys))


def _parse_csv(text: str, path: Path):
    """The system, rows, provenance, method and stored fingerprint of a CSV file, and its row namer."""
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise MatrixFormatError(f"{path}:1: malformed header line")
    try:
        version, mu_max, bins = int(m.group(1)), int(m.group(3)), int(m.group(4))
    except ValueError:  # a number past Python's int-to-str digit limit
        raise MatrixFormatError(f"{path}:1: malformed header line") from None
    fp, method = m.group(2), m.group(5)
    if version != _FORMAT_VERSION:
        raise MatrixFormatError(f"{path}:1: unsupported format version {version}")
    if len(lines) < 4 or not lines[1].startswith("# config: "):
        raise MatrixFormatError(f"{path}:2: missing config line")
    try:
        system = system_from_dict(json.loads(lines[1][len("# config: "):]))
    except (ValueError, ConfigurationError) as exc:  # a JSONDecodeError, or a number past the digit limit
        raise MatrixFormatError(f"{path}:2: bad embedded config ({exc})") from exc
    if not lines[2].startswith("# provenance: "):
        raise MatrixFormatError(f"{path}:3: missing provenance line")
    try:
        prov = _parse_tokens(lines[2][len("# provenance: "):].split(";"))
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}:3: {exc}") from None
    if len(prov) != mu_max + 1:
        raise MatrixFormatError(f"{path}:3: expected {mu_max + 1} provenance tokens, got {len(prov)}")

    data_lines = lines[4:]
    if len(data_lines) != mu_max + 1:
        raise MatrixFormatError(f"{path}: expected {mu_max + 1} data rows, got {len(data_lines)}")
    rows, walk = np.zeros((mu_max + 1, bins + 1)), data_lines
    # np.loadtxt takes a subset of what float() takes (not "1_0"), to the same values; the walk decides the rest.
    if all(map(str.startswith, data_lines, map("{},".format, range(mu_max + 1)))):
        with contextlib.suppress(ValueError):
            cells = np.loadtxt(data_lines, delimiter=",", comments=None, ndmin=2)
            if cells.shape == (mu_max + 1, bins + 2):
                rows, walk = cells[:, 1:].copy(), []
    for i, line in enumerate(walk):
        fields = line.split(",")
        if len(fields) != bins + 2:
            raise MatrixFormatError(f"{path}:{i + 5}: expected {bins + 2} fields, got {len(fields)}")
        if fields[0] != str(i):
            raise MatrixFormatError(f"{path}:{i + 5}: expected mu={i}, got {fields[0]}")
        try:
            rows[i] = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{i + 5}: non-numeric field ({exc})") from exc
    return system, rows, prov, method, fp, lambda i: f"{path}:{i + 5}"


def _parse_json(text: str, path: Path):
    """The same parts as _parse_csv, from a JSON document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number past Python's int-to-str digit limit
        raise MatrixFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "binflux-matrix":
        raise MatrixFormatError(f"{path}: not a binflux-matrix document")
    if doc.get("version") != _FORMAT_VERSION:
        raise MatrixFormatError(f"{path}: unsupported format version {doc.get('version')!r}")
    try:
        system = system_from_dict(doc["config"])
        mu_max, bins = doc["mu_max"], doc["bins"]
        cells = doc["rows"]
        prov = _parse_tokens(doc["provenance"])
        fp, method = str(doc["fingerprint"]), str(doc["method"])
    except (KeyError, TypeError, ValueError, ConfigurationError, MatrixFormatError) as exc:
        raise MatrixFormatError(f"{path}: missing or malformed field ({exc})") from exc
    for name, value in (("mu_max", mu_max), ("bins", bins)):
        if type(value) is not int or value < 0:
            raise MatrixFormatError(f"{path}: {name} must be a non-negative JSON integer, got {value!r}")
    if not isinstance(cells, list) or len(cells) != mu_max + 1:
        raise MatrixFormatError(f"{path}: expected {mu_max + 1} rows")
    for i, row in enumerate(cells):
        # Exact types: bool is an int subclass, but JSON true is not a number.
        if not (isinstance(row, list) and len(row) == bins + 1 and set(map(type, row)) <= {int, float}):
            raise MatrixFormatError(f"{path}: row {i}: expected {bins + 1} JSON numbers")
    try:
        rows = np.array(cells, dtype=float)
    except OverflowError:
        # A JSON integer past the double range; name the first row that holds one.
        for i, row in enumerate(cells):
            try:
                np.array(row, dtype=float)
            except OverflowError as exc:
                raise MatrixFormatError(f"{path}: row {i}: number too large for a double ({exc})") from exc
        raise
    if len(prov) != mu_max + 1:
        raise MatrixFormatError(f"{path}: expected {mu_max + 1} provenance tokens, got {len(prov)}")
    return system, rows, prov, method, fp, lambda i: f"{path}: row {i}"


def load_matrix(path: str | Path) -> ResponseMatrix:
    """Read a matrix written by save_matrix, verifying its rows and fingerprint."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    parse = {".csv": _parse_csv, ".json": _parse_json}.get(path.suffix)
    if parse is None:
        raise ValueError(f"unsupported matrix extension {path.suffix!r} (use .csv or .json)")
    system, rows, prov, method, fp, where = parse(text, path)
    try:
        matrix = ResponseMatrix(system=system, rows=rows, provenance=prov, method=method)
    except MatrixFormatError:
        _check_rows(rows, where)  # the same bad row, named by its place in the file
        raise
    if method not in ("exact", "mc"):
        raise MatrixFormatError(f"{path}: method must be 'exact' or 'mc', got {method!r}")
    if matrix.num_bins != system.num_bins:
        raise MatrixFormatError(
            f"{path}: bins={matrix.num_bins} but the embedded config has {system.num_bins} bins"
        )
    for mu, p in enumerate(prov):
        if p.kind not in (method, "interpolated"):
            raise MatrixFormatError(f"{path}: row {mu} has provenance {p.token()!r} in a method={method} matrix")
    if fp != matrix.fingerprint:
        warnings.warn(
            f"{path}: stored fingerprint {fp[:12]}... does not match the embedded "
            f"configuration ({matrix.fingerprint[:12]}...); trusting the embedded configuration",
            stacklevel=2,
        )
    return matrix
