import dataclasses
import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binflux import (
    MatrixFormatError,
    ResponseMatrix,
    build_matrix,
    coherent_click_distribution,
    fingerprint,
    get_preset,
    load_matrix,
    save_matrix,
    system_to_dict,
    validate_interpolation,
)
import binflux.response_matrix as response_matrix
from binflux.response_matrix import RowProvenance


@pytest.fixture(scope="module")
def small_matrix():
    return build_matrix(get_preset("rapid32"), 40, "exact")


def test_exact_rows_match_oracle(rapid32, rapid32_weights, small_matrix):
    for mu in (0, 7, 40):
        exact = coherent_click_distribution(float(mu), rapid32_weights, rapid32.detector)
        assert np.allclose(small_matrix.rows[mu], exact.probs, atol=1e-15)
    assert all(p.kind == "exact" for p in small_matrix.provenance)


def test_rows_normalized(small_matrix):
    assert np.allclose(small_matrix.rows.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(small_matrix.rows >= 0)


def test_expected_clicks_strictly_increasing(rapid32_matrix400):
    k = np.arange(rapid32_matrix400.num_bins + 1)
    means = rapid32_matrix400.rows @ k
    assert np.all(np.diff(means) > 0)


def test_mu_max_validation(rapid32):
    with pytest.raises(ValueError, match="mu_max"):
        build_matrix(rapid32, 0, "exact")
    with pytest.raises(ValueError, match="method"):
        build_matrix(rapid32, 10, "fast")


@pytest.mark.parametrize(
    "method, shown", [("fast", "'fast'"), (10**5000, "an int of 5001 digits")], ids=["str", "long-int"]
)
def test_an_unknown_method_is_refused_in_one_message(rapid32, method, shown):
    with pytest.raises(ValueError) as exc:
        build_matrix(rapid32, 10, method=method)
    assert str(exc.value) == f"method: expected 'exact' or 'mc', got {shown}"


def test_mc_method_requires_seed(rapid32):
    with pytest.raises(ValueError, match="seed"):
        build_matrix(rapid32, 5, "mc")


def test_mc_matrix_deterministic_and_close_to_exact(rapid32):
    a = build_matrix(rapid32, 5, "mc", n_shots=20000, seed=3)
    b = build_matrix(rapid32, 5, "mc", n_shots=20000, seed=3)
    assert np.array_equal(a.rows, b.rows)
    exact = build_matrix(rapid32, 5, "exact")
    assert np.abs(a.rows - exact.rows).max() < 0.02
    assert a.provenance[2].kind == "mc"
    assert a.provenance[2].n_shots == 20000
    assert a.provenance[2].seed is not None
    # The recorded per-row seed reproduces that row by itself.
    from binflux import Coherent, simulate_batch

    redo = simulate_batch(Coherent(2.0), rapid32.bin_weights(), rapid32.detector, 20000, a.provenance[2].seed)
    assert np.array_equal(redo.distribution, a.rows[2])


def test_support_includes_endpoints(rapid32):
    m = build_matrix(rapid32, 20, "exact", support=[10])
    assert m.provenance[0].kind == "exact"
    assert m.provenance[10].kind == "exact"
    assert m.provenance[20].kind == "exact"
    assert m.provenance[5].kind == "interpolated"
    assert m.provenance[5].mu_lo == 0 and m.provenance[5].mu_hi == 10
    assert [mu for mu, p in enumerate(m.provenance) if p.kind != "interpolated"] == [0, 10, 20]


def test_support_out_of_range(rapid32):
    with pytest.raises(ValueError, match="support"):
        build_matrix(rapid32, 20, "exact", support=[25])


def test_interpolated_rows_normalized_and_between(rapid32):
    m = build_matrix(rapid32, 20, "exact", support=[0, 20])
    assert np.allclose(m.rows.sum(axis=1), 1.0, atol=1e-12)
    errs = dict(validate_interpolation(rapid32, m))
    # Dense support removes interpolation error entirely; at this coarse
    # support the midpoint error is visible but bounded.
    assert 0 < errs[10] < 0.5
    dense = build_matrix(rapid32, 20, "exact")
    assert not validate_interpolation(rapid32, dense)


def test_validate_interpolation_on_mechanistic_matrix(mechanistic32):
    sparse = build_matrix(mechanistic32, 100, support=[10, 40])
    dense = build_matrix(mechanistic32, 100)
    tvs = validate_interpolation(mechanistic32, sparse)
    assert [mu for mu, _ in tvs] == [mu for mu, p in enumerate(sparse.provenance) if p.kind == "interpolated"]
    for mu, tv in tvs:
        assert tv == pytest.approx(0.5 * np.abs(sparse.rows[mu] - dense.rows[mu]).sum(), rel=0, abs=1e-15)
    assert 0.0 < max(tv for _, tv in tvs) < 1.0


def test_interpolate_row_at_support_returns_stored(rapid32, small_matrix):
    # A support row of a sparse matrix is the dense matrix's row, untouched.
    sparse = build_matrix(rapid32, 40, "exact", support=[7, 20])
    for mu in (0, 7, 20, 40):
        assert np.array_equal(sparse.rows[mu], small_matrix.rows[mu])


def test_interpolate_row_midpoint(rapid32, small_matrix):
    sparse = build_matrix(rapid32, 40, "exact", support=[7, 9])
    assert sparse.provenance[8] == RowProvenance(kind="interpolated", mu_lo=7, mu_hi=9)
    blend = 0.5 * (small_matrix.rows[7] + small_matrix.rows[9])
    assert np.allclose(sparse.rows[8], blend / blend.sum(), atol=1e-15)
    assert not np.allclose(sparse.rows[8], small_matrix.rows[8], atol=1e-6)


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_save_load_round_trip_byte_identical(small_matrix, tmp_path, ext):
    p1 = tmp_path / f"m1.{ext}"
    p2 = tmp_path / f"m2.{ext}"
    save_matrix(small_matrix, p1)
    loaded = load_matrix(p1)
    save_matrix(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.rows, small_matrix.rows)
    assert loaded.provenance == small_matrix.provenance
    assert loaded.fingerprint == small_matrix.fingerprint
    assert loaded.method == small_matrix.method
    assert system_to_dict(loaded.system) == system_to_dict(small_matrix.system)


def test_unsupported_extension(small_matrix, tmp_path):
    with pytest.raises(ValueError, match="extension"):
        save_matrix(small_matrix, tmp_path / "m.txt")
    (tmp_path / "m.yaml").write_text("x")
    with pytest.raises(ValueError, match="extension"):
        load_matrix(tmp_path / "m.yaml")


def test_malformed_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("not a matrix\n")
    with pytest.raises(MatrixFormatError, match=":1"):
        load_matrix(p)


def test_truncated_rows(small_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(MatrixFormatError, match="data rows"):
        load_matrix(p)


def test_non_numeric_field_diagnoses_line(small_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    lines = p.read_text().splitlines()
    fields = lines[6].split(",")
    fields[3] = "oops"
    lines[6] = ",".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixFormatError, match=":7"):
        load_matrix(p)


def test_wrong_field_count(small_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    lines = p.read_text().splitlines()
    lines[5] = lines[5] + ",0.0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixFormatError, match="fields"):
        load_matrix(p)


def _corrupt_cell(matrix, path, value):
    """Save matrix to path with row mu=3, click count 2 replaced by value."""
    save_matrix(matrix, path)
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        fields = lines[7].split(",")
        fields[3] = value
        lines[7] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = json.loads(path.read_text())
        doc["rows"][3][2] = float(value)
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("ext, where", [("csv", ":8:"), ("json", "row 3:")])
@pytest.mark.parametrize(
    "value, problem",
    [("nan", "non-finite"), ("-0.25", "negative"), ("0.5", "probabilities sum to")],
)
def test_invalid_row_contents_diagnose_row(small_matrix, tmp_path, ext, where, value, problem):
    p = tmp_path / f"m.{ext}"
    _corrupt_cell(small_matrix, p, value)
    with pytest.raises(MatrixFormatError, match=f"{where} {problem}"):
        load_matrix(p)


def _rewrap(matrix, **changes):
    fields = dict(
        system=matrix.system,
        rows=matrix.rows.copy(),
        provenance=matrix.provenance,
        method=matrix.method,
    )
    fields.update(changes)
    return ResponseMatrix(**fields)


def test_in_memory_matrix_rejects_nan_row(small_matrix):
    # Unchecked, this matrix would give a NaN posterior with mode 0 for one
    # click.
    rows = small_matrix.rows.copy()
    rows[8] = np.nan
    with pytest.raises(MatrixFormatError, match="row 8: non-finite"):
        _rewrap(small_matrix, rows=rows)


@pytest.mark.parametrize(
    "changes, match",
    [
        (dict(rows=np.full((41, 33), 1.0 / 33)[:, :, None]), "rows: expected shape"),
        (dict(rows=np.full((40, 33), 1.0 / 33)), "rows: expected shape"),
        (dict(provenance=(RowProvenance(kind="exact"),) * 40), "provenance: expected 41"),
    ],
)
def test_in_memory_matrix_checks_shapes(small_matrix, changes, match):
    with pytest.raises(MatrixFormatError, match=match):
        _rewrap(small_matrix, **changes)


def test_in_memory_matrix_rejects_unnormalized_row(small_matrix):
    rows = small_matrix.rows.copy()
    rows[3, 2] += 0.5
    with pytest.raises(MatrixFormatError, match="row 3: probabilities sum to"):
        _rewrap(small_matrix, rows=rows)
    assert _rewrap(small_matrix).rows.flags.writeable is False


def test_row_sum_tolerance_is_1e_9(small_matrix):
    # A row may sum to 1 within 1e-9 (what renormalised float rows need), not further.
    rows = small_matrix.rows.copy()
    rows[3] /= rows[3].sum()
    rows[3, 0] += 5e-10
    _rewrap(small_matrix, rows=rows.copy())
    rows[3, 0] += 1.5e-9
    with pytest.raises(MatrixFormatError, match="row 3: probabilities sum to .* expected 1 within 1e-09"):
        _rewrap(small_matrix, rows=rows)


def test_replace_derives_mu_max_and_fingerprint(small_matrix):
    for k in (1, 7, 39):
        head = dataclasses.replace(
            small_matrix, rows=small_matrix.rows[: k + 1], provenance=small_matrix.provenance[: k + 1]
        )
        assert head.mu_max == k
        assert head.fingerprint == fingerprint(small_matrix.system)


@pytest.mark.parametrize("name", ["mu_max", "fingerprint"])
def test_derived_fields_are_not_constructor_arguments(small_matrix, name):
    with pytest.raises(TypeError, match=name):
        _rewrap(small_matrix, **{name: getattr(small_matrix, name)})


def test_shape_error_names_both_lengths(small_matrix):
    with pytest.raises(MatrixFormatError) as info:
        _rewrap(small_matrix, provenance=small_matrix.provenance[:40])
    assert str(info.value) == (
        "rows: expected shape (40, bins + 1), got (41, 33); provenance: expected 41 entries, got 40"
    )
    with pytest.raises(MatrixFormatError, match=r"rows: expected shape \(41, bins \+ 1\), got \(\)"):
        _rewrap(small_matrix, rows=np.array(1.0))
    with pytest.raises(MatrixFormatError) as info:
        _rewrap(small_matrix, rows=small_matrix.rows[:, :, None])
    assert str(info.value) == "rows: expected shape (41, bins + 1), got (41, 33, 1)"


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_load_checks_rows_once(small_matrix, tmp_path, monkeypatch, ext):
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix, p)
    calls, check = [], response_matrix._check_rows
    monkeypatch.setattr(response_matrix, "_check_rows", lambda rows, where: calls.append(1) or check(rows, where))
    load_matrix(p)
    assert len(calls) == 1


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_tampered_fingerprint_is_derived_and_warns_the_caller(small_matrix, tmp_path, ext):
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix, p)
    p.write_text(p.read_text().replace(small_matrix.fingerprint, "0" * 64, 1))
    with pytest.warns(UserWarning, match="does not match the embedded configuration") as caught:
        loaded = load_matrix(p)
    assert [w.filename for w in caught] == [__file__]
    assert loaded.fingerprint == fingerprint(loaded.system)


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_legacy_mc_warning_names_the_caller(small_mc_matrix, tmp_path, ext):
    p = tmp_path / f"legacy.{ext}"
    save_matrix(small_mc_matrix, p)
    p.write_text(p.read_text().replace("mc4:", "mc:"))
    with pytest.warns(UserWarning, match="v1 Monte Carlo tokens") as caught:
        load_matrix(p)
    assert [w.filename for w in caught] == [__file__]


def test_bad_provenance_token(small_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    text = p.read_text().replace("# provenance: exact;", "# provenance: magic;", 1)
    p.write_text(text)
    with pytest.raises(MatrixFormatError, match="magic"):
        load_matrix(p)


def test_tampered_fingerprint_warns(small_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    text = p.read_text()
    bad = "0" * 64
    p.write_text(text.replace(small_matrix.fingerprint, bad, 1))
    with pytest.warns(UserWarning, match="fingerprint"):
        loaded = load_matrix(p)
    # The embedded configuration wins.
    assert loaded.fingerprint == small_matrix.fingerprint


def test_fingerprint_tracks_configuration(rapid32, conventional16):
    assert fingerprint(rapid32) != fingerprint(conventional16)
    assert fingerprint(rapid32) == fingerprint(get_preset("rapid32"))


def test_json_rejects_wrong_document(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(MatrixFormatError, match="binflux-matrix"):
        load_matrix(p)
    p.write_text("{broken")
    with pytest.raises(MatrixFormatError, match="JSON"):
        load_matrix(p)


def test_provenance_token_round_trip():
    for prov in (
        RowProvenance(kind="exact"),
        RowProvenance(kind="mc", n_shots=1000, seed=42),
        RowProvenance(kind="interpolated", mu_lo=3, mu_hi=9),
    ):
        assert RowProvenance.from_token(prov.token()) == prov
    with pytest.raises(MatrixFormatError):
        RowProvenance.from_token("exact:1:2")



def _edit(path, line, csv_edit, json_edit):
    """Rewrite a saved matrix: csv_edit maps CSV line `line` (0-based), json_edit the JSON document."""
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        lines[line] = csv_edit(lines[line])
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(json_edit(json.loads(path.read_text()))))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "ext, line, csv_edit, json_edit, where",
    [
        ("csv", 2, lambda s: s.replace("exact;", "mc:abc:1;", 1), None, ":3: "),
        ("json", None, None, lambda doc: _without(doc, "bins"), ": missing or malformed field"),
        ("json", None, None, lambda doc: [doc], ": not a binflux-matrix document"),
        ("json", None, None, lambda doc: {**doc, "provenance": 5}, ": missing or malformed field"),
        (
            "json",
            None,
            None,
            lambda doc: {**doc, "provenance": [0] + doc["provenance"][1:]},
            ": missing or malformed field (provenance: unrecognized token 0)",
        ),
    ],
    ids=[
        "csv-bad-provenance-int",
        "json-without-bins",
        "json-top-level-list",
        "json-provenance-not-a-list",
        "json-provenance-not-a-string",
    ],
)
def test_malformed_file_is_format_error(small_matrix, tmp_path, ext, line, csv_edit, json_edit, where):
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix, p)
    _edit(p, line, csv_edit, json_edit)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value).startswith(f"{p}{where}")


@pytest.fixture(scope="module")
def small_mc_matrix():
    return build_matrix(get_preset("rapid32"), 6, "mc", n_shots=500, seed=4, support=[3])


def _config_line(config):
    return "# config: " + json.dumps(config)


def _first_token(token):
    """Edits that replace the provenance token of row 0."""
    return (
        lambda s: "# provenance: " + token + s[s.index(";"):],
        lambda doc: {**doc, "provenance": [token] + doc["provenance"][1:]},
    )


C16 = system_to_dict(get_preset("conventional16"))


@pytest.mark.parametrize("ext", ["csv", "json"])
@pytest.mark.parametrize(
    "method, line, edits, message",
    [
        (
            "exact",
            0,
            (lambda s: s.replace("method=exact", "method=banana"), lambda doc: {**doc, "method": "banana"}),
            "method must be 'exact' or 'mc', got 'banana'",
        ),
        (
            "exact",
            1,
            (lambda s: _config_line(C16), lambda doc: {**doc, "config": C16}),
            "bins=32 but the embedded config has 16 bins",
        ),
        ("exact", 2, _first_token("mc:5:1"), "row 0 has provenance 'mc:5:1' in a method=exact matrix"),
        ("mc", 2, _first_token("exact"), "row 0 has provenance 'exact' in a method=mc matrix"),
    ],
    ids=["method", "bins", "mc-row-in-exact", "exact-row-in-mc"],
)
def test_inconsistent_matrix_is_rejected(
    small_matrix, small_mc_matrix, tmp_path, ext, method, line, edits, message
):
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix if method == "exact" else small_mc_matrix, p)
    _edit(p, line, *edits)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}: {message}"


def test_mc_matrix_with_interpolated_rows_loads(small_mc_matrix, tmp_path):
    p = tmp_path / "m.csv"
    save_matrix(small_mc_matrix, p)
    assert {q.kind for q in load_matrix(p).provenance} == {"mc", "interpolated"}


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_malformed_embedded_config_is_format_error(small_matrix, tmp_path, ext):
    config = system_to_dict(small_matrix.system)
    config["detector"]["efficiency"] = "abc"
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix, p)
    _edit(p, 1, lambda s: _config_line(config), lambda doc: {**doc, "config": config})
    with pytest.raises(MatrixFormatError, match="detector.efficiency"):
        load_matrix(p)


def _assignment_config(entry):
    """small_matrix's config with an explicit detector assignment whose first entry is entry."""
    config = system_to_dict(get_preset("rapid32"))
    config["multiplexer"]["detector_assignment"] = [entry, 1, 0, 1] * 8
    return config


def _number_string_config():
    config = system_to_dict(get_preset("rapid32"))
    config["detector"]["deadtime"] = "9.78e-9"
    return config


@pytest.mark.parametrize(
    "ext, line, edits, message",
    [
        ("csv", None, lambda s: "", ": empty file"),
        ("csv", 0, lambda s: s.replace("# binflux-matrix v1,", "# binflux-matrix v99,"),
         ":1: unsupported format version 99"),
        ("csv", 1, lambda s: "# a comment", ":2: missing config line"),
        ("csv", 2, lambda s: "# a comment", ":3: missing provenance line"),
        ("csv", 2, lambda s: s[: s.rindex(";")], ":3: expected 41 provenance tokens, got 40"),
        ("json", None, lambda doc: {**doc, "version": 99}, ": unsupported format version 99"),
        ("json", None, lambda doc: {**doc, "provenance": doc["provenance"][:-1]},
         ": expected 41 provenance tokens, got 40"),
        # Before, MultiplexerSpec took False and 1.0 as detector indices, and save_matrix wrote them.
        ("csv", 1, lambda s: _config_line(_assignment_config(False)),
         ":2: bad embedded config (multiplexer.detector_assignment[0] must be an integer in [0, 1], got False)"),
        ("json", None, lambda doc: {**doc, "config": _assignment_config(1.0)},
         ": missing or malformed field (multiplexer.detector_assignment[0] must be an integer in [0, 1], got 1.0)"),
        ("csv", 1, lambda s: _config_line(_number_string_config()),
         ":2: bad embedded config (detector.deadtime must be a real number in [0, inf), got '9.78e-9')"),
    ],
    ids=[
        "csv-empty", "csv-version", "csv-no-config", "csv-no-provenance", "csv-provenance-count", "json-version",
        "json-provenance-count", "csv-assignment-false", "json-assignment-float", "csv-deadtime-string",
    ],
)
def test_a_malformed_file_gets_the_whole_message(small_matrix, tmp_path, ext, line, edits, message):
    p = tmp_path / f"m.{ext}"
    save_matrix(small_matrix, p)
    if line is None and ext == "csv":
        p.write_text(edits(p.read_text()))
    else:
        _edit(p, line, edits, edits)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}{message}"


# Cells whose text is easy to get wrong: signed zero, the smallest subnormal
# and other subnormals, values near 1e-300, and values that need 17 digits.
EDGE_CELLS = [
    0.0, -0.0, 1.0, 5e-324, 1e-310, 2.225073858507201e-308, 1e-300, math.nextafter(1e-300, 1.0),
    math.nextafter(1e-300, 0.0), 0.1, 1 / 3, 0.30000000000000004, math.nextafter(1.0, 0.0),
]


def _reference_save(matrix, path):
    """save_matrix as it wrote files before rows were written at once: one f"{x:.17g}" per CSV cell."""
    if path.suffix == ".csv":
        lines = [
            f"# binflux-matrix v1, fingerprint={matrix.fingerprint}, "
            f"mu_max={matrix.mu_max}, bins={matrix.num_bins}, method={matrix.method}",
            "# config: " + json.dumps(system_to_dict(matrix.system), sort_keys=True, separators=(",", ":")),
            "# provenance: " + ";".join(p.token() for p in matrix.provenance),
            "mu," + ",".join(f"p{k}" for k in range(matrix.num_bins + 1)),
        ]
        for mu in range(matrix.mu_max + 1):
            lines.append(f"{mu}," + ",".join(f"{v:.17g}" for v in matrix.rows[mu]))
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = {
            "format": "binflux-matrix",
            "version": 1,
            "fingerprint": matrix.fingerprint,
            "mu_max": matrix.mu_max,
            "bins": matrix.num_bins,
            "method": matrix.method,
            "config": system_to_dict(matrix.system),
            "provenance": [p.token() for p in matrix.provenance],
            "rows": matrix.rows.tolist(),
        }
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n")


@st.composite
def random_matrices(draw):
    """Hand-built matrices: random rows with edge cells, and provenance mixing every token kind the method allows."""
    system = get_preset(draw(st.sampled_from(["rapid32", "conventional16"])))
    mu_max = draw(st.integers(min_value=0, max_value=8))
    cells = system.num_bins + 1
    cell = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_CELLS))
    rows = np.array(
        draw(st.lists(cell, min_size=(mu_max + 1) * cells, max_size=(mu_max + 1) * cells))
    ).reshape(mu_max + 1, cells)
    rows[np.arange(mu_max + 1), draw(st.integers(0, cells - 1))] += 1.0
    if draw(st.booleans()):
        rows /= rows.sum(axis=1, keepdims=True)
    else:
        # Keep the cells up to 0.02 as drawn, shrink the others and put the rest of the mass in the
        # last cell; row 0 is one-hot, so its last cell is exactly 1.0.
        rows = np.where(rows > 0.02, rows * 0.02, rows)
        rows[0, :-1] = 0.0
        rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
    method = draw(st.sampled_from(["exact", "mc"]))
    ints = st.integers(0, 2**64 - 1)
    direct = (
        st.just(RowProvenance(kind="exact"))
        if method == "exact"
        else st.builds(
            lambda n, seed, kernel: RowProvenance(kind="mc", n_shots=n, seed=seed, kernel=kernel),
            st.integers(1, 10**9), ints, st.sampled_from(["mc4", "mc3", "mc2", "mc"]),
        )
    )
    interp = st.builds(lambda lo, hi: RowProvenance(kind="interpolated", mu_lo=lo, mu_hi=hi), ints, ints)
    prov = tuple(draw(st.lists(st.one_of(direct, interp), min_size=mu_max + 1, max_size=mu_max + 1)))
    return ResponseMatrix(system=system, rows=rows, provenance=prov, method=method)


@given(matrix=random_matrices(), ext=st.sampled_from(["csv", "json"]))
@settings(max_examples=60, deadline=None)
def test_random_matrix_save_load_round_trip(matrix, ext):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2, ref = Path(tmp) / f"m1.{ext}", Path(tmp) / f"m2.{ext}", Path(tmp) / f"ref.{ext}"
        save_matrix(matrix, p1)
        _reference_save(matrix, ref)
        assert p1.read_bytes() == ref.read_bytes()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_matrix(ref)
        save_matrix(loaded, p2)
        assert p2.read_bytes() == ref.read_bytes()
    assert loaded.rows.tobytes() == matrix.rows.tobytes()  # bit for bit, -0.0 included
    assert loaded.provenance == matrix.provenance
    legacy = any(p.kind == "mc" and p.kernel != "mc4" for p in matrix.provenance)
    assert len(caught) == (1 if legacy else 0)


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_legacy_mc_file_loads_warns_once_and_resaves_identically(small_mc_matrix, tmp_path, ext):
    # A file the v1 kernel wrote differs from an mc4 one only in its tokens.
    current, legacy, resaved = (tmp_path / f"{name}.{ext}" for name in ("current", "legacy", "resaved"))
    save_matrix(small_mc_matrix, current)
    assert "mc4:" in current.read_text()
    legacy.write_text(current.read_text().replace("mc4:", "mc:"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert [p.token() for p in load_matrix(current).provenance] == [
            p.token() for p in small_mc_matrix.provenance
        ]
    assert caught == []
    with pytest.warns(UserWarning) as caught:
        loaded = load_matrix(legacy)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert str(legacy) in message and "cannot reproduce" in message
    assert [p.kernel for p in loaded.provenance if p.kind == "mc"] == ["mc"] * 3  # rows 0, 3 and 6
    save_matrix(loaded, resaved)
    assert resaved.read_bytes() == legacy.read_bytes()


DATA = Path(__file__).parent / "data"
MC2_FILE = DATA / "mc2_rapid32_mu6.csv"
MC3_FILE = DATA / "mc3_rapid32_mu6.csv"


def _assert_retired_file_loads_unchanged(path, tmp_path, kernels, found):
    """One warning naming each retired stream of the file, rows bit-equal to its numbers, re-save byte-identical."""
    with pytest.warns(UserWarning) as caught:
        loaded = load_matrix(path)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert f"3 of 7 rows carry {found};" in message and "cannot reproduce" in message
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[4:]])
    assert loaded.rows.tobytes() == rows.tobytes()
    assert [p.kernel for p in loaded.provenance if p.kind == "mc"] == kernels  # rows 0, 3 and 6
    resaved = tmp_path / "resaved.csv"
    save_matrix(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_mc2_file_loads_with_one_warning_and_unchanged_rows(tmp_path):
    # Written by binflux 0.5.0 (the mc2 stream): build_matrix(rapid32, 6, "mc", n_shots=500, seed=4, support=[3]).
    _assert_retired_file_loads_unchanged(MC2_FILE, tmp_path, ["mc2"] * 3, "v2 Monte Carlo tokens ('mc2:')")


def test_mc3_file_loads_with_one_warning_and_unchanged_rows(tmp_path):
    # Written by binflux 0.6.0 (the mc3 stream) with the same call as the mc2 file.
    _assert_retired_file_loads_unchanged(MC3_FILE, tmp_path, ["mc3"] * 3, "v3 Monte Carlo tokens ('mc3:')")


def test_file_with_mc2_and_mc3_rows_names_both_in_one_warning(tmp_path):
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(MC3_FILE.read_text().replace("mc3:", "mc2:", 1))
    found = "v2 Monte Carlo tokens ('mc2:') and v3 Monte Carlo tokens ('mc3:')"
    _assert_retired_file_loads_unchanged(mixed, tmp_path, ["mc2", "mc3", "mc3"], found)


def test_file_with_both_retired_streams_names_each_in_one_warning(small_mc_matrix, tmp_path):
    p = tmp_path / "mixed.csv"
    save_matrix(small_mc_matrix, p)
    text = p.read_text()
    p.write_text(text.replace("mc4:", "mc:", 1).replace("mc4:", "mc2:"))
    with pytest.warns(UserWarning) as caught:
        load_matrix(p)
    assert len(caught) == 1
    assert "3 of 7 rows carry v1 Monte Carlo tokens ('mc:') and v2 Monte Carlo tokens ('mc2:')" in str(
        caught[0].message
    )


@pytest.mark.parametrize("mu_field", ["1.9", "nan", "inf", "1.0", "+1", " 1", ""])
def test_csv_mu_field_must_be_the_row_index(small_matrix, tmp_path, mu_field):
    # Line 6 holds mu = 1. "1.9" once loaded as row 1, "nan" escaped as a
    # bare ValueError and "inf" as an OverflowError.
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    _edit(p, 5, lambda s: mu_field + s[s.index(","):], None)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}:6: expected mu=1, got {mu_field}"


def _quote_cell(doc):
    doc["rows"][3][2] = str(doc["rows"][3][2])
    return doc


def _bool_cell(doc):
    doc["rows"][3][2] = False
    return doc


@pytest.mark.parametrize(
    "json_edit, message",
    [
        (_quote_cell, "row 3: expected 33 JSON numbers"),
        (_bool_cell, "row 3: expected 33 JSON numbers"),
        (lambda doc: {**doc, "rows": doc["rows"][:-1]}, "expected 41 rows"),
        (lambda doc: {**doc, "rows": {"0": doc["rows"][0]}}, "expected 41 rows"),
        (lambda doc: {**doc, "mu_max": 40.0}, "mu_max must be a non-negative JSON integer, got 40.0"),
        (lambda doc: {**doc, "mu_max": 5.7}, "mu_max must be a non-negative JSON integer, got 5.7"),
        (lambda doc: {**doc, "bins": "32"}, "bins must be a non-negative JSON integer, got '32'"),
        (lambda doc: {**doc, "bins": True}, "bins must be a non-negative JSON integer, got True"),
    ],
    ids=["quoted-cell", "bool-cell", "missing-row", "rows-not-a-list", "float-mu-max", "fractional-mu-max",
         "string-bins", "bool-bins"],
)
def test_json_fields_must_have_json_types(small_matrix, tmp_path, json_edit, message):
    # The quoted cell, 40.0 and "32" all loaded before; 5.7 was cut to 5.
    p = tmp_path / "m.json"
    save_matrix(small_matrix, p)
    _edit(p, None, None, json_edit)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}: {message}"


def test_json_integer_cells_load(small_matrix, tmp_path):
    # JSON numbers without a fraction are numbers too.
    p = tmp_path / "m.json"
    save_matrix(small_matrix, p)
    rows = small_matrix.rows.tolist()
    rows[0] = [1] + [0] * small_matrix.num_bins
    _edit(p, None, None, lambda doc: {**doc, "rows": rows})
    assert np.array_equal(load_matrix(p).rows, np.array(rows))


@pytest.mark.parametrize("cell", [10**400, -(10**400)], ids=["huge", "minus-huge"])
def test_json_integer_cell_past_the_double_range_names_its_row(small_matrix, tmp_path, cell):
    # Before, the conversion to float raised a bare OverflowError out of load_matrix.
    p = tmp_path / "m.json"
    save_matrix(small_matrix, p)
    rows = small_matrix.rows.tolist()
    rows[3][2] = cell
    _edit(p, None, None, lambda doc: {**doc, "rows": rows})
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}: row 3: number too large for a double (int too large to convert to float)"


@pytest.fixture(scope="module")
def sparse_mc_matrix400():
    """The seeded sparse Monte Carlo matrix that tests/test_inference_stream.py pins row by row."""
    return build_matrix(get_preset("rapid32"), 400, "mc", n_shots=20_000, seed=11, support=[100, 200, 300], workers=1)


# sha256 of the files save_matrix writes, recorded when every cell was formatted on its own; the
# Monte Carlo pair again when every Monte Carlo row came to share one seed and one word stream.
MATRIX_FILE_DIGESTS = {
    ("exact", "csv"): "5c397ed3d9e560c22e453dab8749714bd9712a08113d233a6dcda4935e9d79a1",
    ("exact", "json"): "002d3129b653e727f31c6b4083fef2f90e9e4294faa86d792d884458996dfd0a",
    ("mc", "csv"): "dfa3a98fde6a9afef5af61b7f1c81866c55ac02144ef3cb988d18b45ce528a6b",
    ("mc", "json"): "cae5718e3d175a4264d9096bd009ce0c36c59bd2a9caaf20b37c85e06a16cc73",
}


@pytest.mark.parametrize("method, ext", sorted(MATRIX_FILE_DIGESTS))
def test_matrix_file_bytes_are_pinned(rapid32_matrix400, sparse_mc_matrix400, tmp_path, method, ext):
    matrix = rapid32_matrix400 if method == "exact" else sparse_mc_matrix400
    p = tmp_path / f"m.{ext}"
    save_matrix(matrix, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == MATRIX_FILE_DIGESTS[method, ext]
    loaded = load_matrix(p)
    assert loaded.rows.tobytes() == matrix.rows.tobytes()
    assert loaded.provenance == matrix.provenance


def test_short_line_then_long_line_names_the_short_one(small_matrix, tmp_path):
    # The file still holds (mu_max + 1) * (bins + 2) fields, so only a per-line count catches it.
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    lines = p.read_text().splitlines()
    lines[6], cell = lines[6].rsplit(",", 1)
    lines[7] += "," + cell
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}:7: expected 34 fields, got 33"


@pytest.mark.parametrize("line", [5, 45], ids=["first", "last"])
@pytest.mark.parametrize("cell", ["oops", "", "1__0", "0x1p-3", "nan(1)", "0.5e"])
def test_cell_float_refuses_names_its_line(small_matrix, tmp_path, line, cell):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    _edit(p, line - 1, lambda s: s.rsplit(",", 1)[0] + "," + cell, None)
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(p)
    assert str(exc.value).startswith(f"{p}:{line}: non-numeric field (could not convert string to float: ")


FULLWIDTH = {ord(d): ord(d) + 0xFEE0 for d in "0123456789"}


@pytest.mark.parametrize(
    "spell",
    [
        lambda s: f" {s}\t",
        lambda s: "+" + s,
        lambda s: s[:3] + "_" + s[3:],  # "0.0_45...": float() reads it, np.loadtxt does not
        lambda s: s.translate(FULLWIDTH),  # non-ASCII digits: likewise
    ],
    ids=["whitespace", "plus", "underscore", "fullwidth"],
)
def test_cells_load_as_float_reads_them(small_matrix, tmp_path, spell):
    p = tmp_path / "m.csv"
    save_matrix(small_matrix, p)
    fields = p.read_text().splitlines()[7].split(",")
    _edit(p, 7, lambda s: ",".join(fields[:3] + [spell(fields[3])] + fields[4:]), None)
    assert load_matrix(p).rows.tobytes() == small_matrix.rows.tobytes()
