import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import binflux
import binflux.cli as cli
import binflux.config as config_mod
import binflux.inference as inference
from binflux import (
    Coherent,
    DetectorSpec,
    ModelUnsupportedError,
    MultiplexerSpec,
    ResponseMatrix,
    SystemConfig,
    UniformLoss,
    baseline_error_curve,
    build_matrix,
    coherent_click_distribution,
    fingerprint,
    fock_click_distribution,
    load_matrix,
    posterior_multi,
    relative_error_curve,
    save_matrix,
    save_system,
    simulate_batch,
    stability_max_n,
    total_variation,
)
from binflux._rng import derive_seed
from binflux.cli import _fmt, main
from binflux.exact_oracle import coherent_click_rows
from binflux.response_matrix import RowProvenance


@pytest.fixture(scope="module")
def rapid32_matrix_file(tmp_path_factory):
    """The file `matrix --preset rapid32 --mu-max <mu_max> -o rapid32.<suffix>` writes, made once per module."""
    made = {}

    def get(mu_max, suffix="csv"):
        if (mu_max, suffix) not in made:
            path = tmp_path_factory.mktemp(f"matrix{mu_max}") / f"rapid32.{suffix}"
            assert main(["matrix", "--preset", "rapid32", "--mu-max", str(mu_max), "-o", str(path)]) == 0
            made[mu_max, suffix] = path
        return made[mu_max, suffix]

    return get


@pytest.fixture(scope="module")
def matrix_file(rapid32_matrix_file):
    return rapid32_matrix_file(400)


def test_version_agrees_across_package_project_and_cli(capsys):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert binflux.__version__ == declared == "0.11.0"
    assert capsys.readouterr().out == "binflux 0.11.0\n"


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "conventional16" in out and "rapid32" in out
    assert "bins" in out and "max rate" in out


def test_presets_json(capsys):
    assert main(["presets", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"conventional16", "rapid32"}
    assert doc["rapid32"]["detector"]["efficiency"] == 0.165
    assert len(doc["conventional16"]["multiplexer"]["loop_delays"]) == 3


def test_simulate_csv_output(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    rc = main(
        [
            "simulate", "--preset", "rapid32", "--mu", "8", "--shots", "2000",
            "--seed", "5", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,count,probability"
    assert len(lines) == 1 + 33
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 2000

    manifest = json.loads((tmp_path / "hist.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["fingerprint"] == fingerprint_of_preset("rapid32")
    # No timestamps: the manifest carries only the resolved inputs.
    assert set(manifest) == {"tool", "command", "parameters", "system", "fingerprint", "versions"}
    assert "wrote" in capsys.readouterr().out


def fingerprint_of_preset(name):
    from binflux import get_preset

    return fingerprint(get_preset(name))


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--preset", "conventional16", "--mu", "3", "--shots", "500", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # Manifests differ only in the output path they record.
    ma = (tmp_path / "a.csv.manifest.json").read_text().replace(str(a), "OUT")
    mb = (tmp_path / "b.csv.manifest.json").read_text().replace(str(b), "OUT")
    assert ma == mb


def test_simulate_json_output(tmp_path):
    out = tmp_path / "hist.json"
    rc = main(
        [
            "simulate", "--preset", "rapid32", "--fock", "4", "--shots", "1000",
            "--seed", "2", "-o", str(out), "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert sum(doc["histogram"]) == 1000
    assert doc["source"] == {"kind": "fock", "n_photons": 4}
    assert max(i for i, c in enumerate(doc["histogram"]) if c) <= 4


def test_simulate_coherent_json_output(tmp_path):
    out = tmp_path / "hist.json"
    argv = ["simulate", "--preset", "rapid32", "--mu", "100", "--shots", "1000", "--seed", "2", "--format", "json"]
    assert main([*argv, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"histogram", "mean_clicks", "n_shots", "source"}
    assert doc["source"] == {"kind": "coherent", "mu": 100.0}
    assert doc["n_shots"] == 1000 and sum(doc["histogram"]) == 1000 and len(doc["histogram"]) == 33
    assert doc["mean_clicks"] == sum(n * c for n, c in enumerate(doc["histogram"])) / 1000


def _parser_error(argv, capsys) -> str:
    """stderr of an option conflict, which the parser reports with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_simulate_source_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    base = ["simulate", "--preset", "rapid32", "--shots", "10", "--seed", "1", "-o", out]
    assert "one of the arguments --mu --fock is required" in _parser_error(base, capsys)
    err = _parser_error(base + ["--mu", "2", "--fock", "3"], capsys)
    assert "argument --fock: not allowed with argument --mu" in err
    assert not (tmp_path / "x.csv").exists()


def test_system_source_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfg = tmp_path / "sys.json"
    save_system(preset("rapid32"), cfg)
    args = ["simulate", "--mu", "2", "--shots", "10", "--seed", "1", "-o", out]
    assert "one of the arguments --preset --config is required" in _parser_error(args, capsys)
    err = _parser_error(args + ["--preset", "rapid32", "--config", str(cfg)], capsys)
    assert "argument --config: not allowed with argument --preset" in err
    assert not (tmp_path / "x.csv").exists()
    assert main(args + ["--config", str(cfg)]) == 0


def preset(name):
    from binflux import get_preset

    return get_preset(name)


def test_unknown_preset_is_config_error(tmp_path):
    rc = main(
        ["simulate", "--preset", "rapid99", "--mu", "1", "--shots", "10", "--seed", "1",
         "-o", str(tmp_path / "x.csv")]
    )
    assert rc == 3


def test_matrix_mc_requires_seed(tmp_path):
    rc = main(
        ["matrix", "--preset", "rapid32", "--mu-max", "5", "--method", "mc",
         "-o", str(tmp_path / "m.csv")]
    )
    assert rc == 2


def test_matrix_mc_rerun_byte_identical(tmp_path):
    args = [
        "matrix", "--preset", "conventional16", "--mu-max", "6", "--method", "mc",
        "--shots", "2000", "--seed", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_infer_single_count(matrix_file, capsys):
    rc = main(["infer", "-m", str(matrix_file), "--n", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == 8
    assert (doc["interval"]["lo"], doc["interval"]["hi"]) == (1, 33)
    assert doc["interval"]["width"] == 33
    assert doc["max_admissible_n"] == 16
    assert doc["energy_j"] == pytest.approx(4.23e-18, rel=0.01, abs=0)
    assert doc["n_observations"] == 1


def test_infer_count_above_cutoff(matrix_file, capsys):
    assert main(["infer", "-m", str(matrix_file), "--n", "20"]) == 4
    assert "stability cutoff" in capsys.readouterr().err


def test_infer_refusal_is_the_library_refusal(matrix_file, tmp_path, capsys):
    # infer --obs prints, after its label, the message posterior_multi raises for the same counts.
    obs = tmp_path / "obs.txt"
    obs.write_text("5\n17\n")
    assert main(["infer", "-m", str(matrix_file), "--obs", str(obs)]) == 4
    err = capsys.readouterr().err
    matrix = load_matrix(matrix_file)
    with pytest.raises(ModelUnsupportedError, match="stability cutoff") as exc:
        posterior_multi(matrix, [5, 17], max_admissible_n=stability_max_n(matrix.system, matrix.mu_max))
    assert err == f"binflux: unsupported by this model: {exc.value}\n"


def test_infer_cutoff_override(matrix_file):
    assert main(["infer", "-m", str(matrix_file), "--n", "20", "--max-n", "20"]) == 0
    assert main(["infer", "-m", str(matrix_file), "--n", "20", "--no-stability"]) == 0


def test_infer_impossible_count(matrix_file, capsys):
    assert main(["infer", "-m", str(matrix_file), "--n", "99"]) == 2
    assert capsys.readouterr().err == "binflux: usage error: click count must be an integer in [0, 32], got 99\n"


@pytest.mark.parametrize("source", ["n", "obs"])
def test_infer_count_past_the_bins_is_a_usage_error_before_the_cutoff(matrix_file, tmp_path, capsys, source):
    # 33 clicks on 32 bins is also above the cutoff 16, which would exit 4;
    # the count rule (errors._integer) is checked first and writes nothing.
    out, post = tmp_path / "out" / "result.json", tmp_path / "out" / "post.csv"
    out.parent.mkdir()
    if source == "n":
        given = ["--n", "33"]
    else:
        obs = tmp_path / "obs.txt"
        obs.write_text("1\n33\n")
        given = ["--obs", str(obs)]
    rc = main(["infer", "-m", str(matrix_file), *given, "-o", str(out), "--posterior", str(post)])
    assert rc == 2
    assert capsys.readouterr().err == "binflux: usage error: click count must be an integer in [0, 32], got 33\n"
    assert list(out.parent.iterdir()) == []


def test_infer_requires_one_observation_source(matrix_file, tmp_path, capsys):
    assert "one of the arguments --n --obs is required" in _parser_error(["infer", "-m", str(matrix_file)], capsys)
    obs = tmp_path / "obs.txt"
    obs.write_text("1\n")
    err = _parser_error(["infer", "-m", str(matrix_file), "--n", "1", "--obs", str(obs)], capsys)
    assert "argument --obs: not allowed with argument --n" in err


def test_infer_nan_matrix_cell_is_format_error(matrix_file, tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    lines = matrix_file.read_text().splitlines()
    fields = lines[9].split(",")
    fields[2] = "nan"
    lines[9] = ",".join(fields)
    bad.write_text("\n".join(lines) + "\n")
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert f"{bad}:10: non-finite" in capsys.readouterr().err


def test_infer_fingerprint_mismatch(matrix_file, capsys):
    rc = main(["infer", "-m", str(matrix_file), "--preset", "conventional16", "--n", "1"])
    assert rc == 3
    assert "fingerprint" in capsys.readouterr().err
    rc = main(
        ["infer", "-m", str(matrix_file), "--preset", "conventional16", "--n", "1", "--force"]
    )
    assert rc == 0


def test_infer_matching_config_passes(matrix_file):
    assert main(["infer", "-m", str(matrix_file), "--preset", "rapid32", "--n", "1"]) == 0


def test_infer_obs_file(matrix_file, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("5\n3  # a comment\n\n4\n5\n")
    out = tmp_path / "result.json"
    rc = main(["infer", "-m", str(matrix_file), "--obs", str(obs), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n_observations"] == 4
    assert doc["interval"]["width"] < 33
    assert (tmp_path / "result.json.manifest.json").exists()


def test_infer_obs_file_rejects_garbage(matrix_file, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("1\ntwo\n")
    assert main(["infer", "-m", str(matrix_file), "--obs", str(obs)]) == 2
    assert "obs.txt:2" in capsys.readouterr().err
    obs.write_text("# only comments\n")
    assert main(["infer", "-m", str(matrix_file), "--obs", str(obs)]) == 2


def test_infer_posterior_csv(matrix_file, tmp_path, capsys):
    post = tmp_path / "posterior.csv"
    rc = main(["infer", "-m", str(matrix_file), "--n", "8", "--posterior", str(post)])
    assert rc == 0
    capsys.readouterr()
    lines = post.read_text().splitlines()
    assert lines[0] == "mu,probability"
    assert len(lines) == 1 + 401
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((tmp_path / "posterior.csv.manifest.json").read_text())
    assert manifest["command"] == "infer"
    assert manifest["parameters"]["posterior"] == str(post)

    # With -o as well, each of the two files gets its own manifest, and the
    # result JSON keeps exactly its fields.
    post2, result = tmp_path / "post2.csv", tmp_path / "result.json"
    rc = main(["infer", "-m", str(matrix_file), "--n", "8", "-o", str(result), "--posterior", str(post2)])
    assert rc == 0
    assert post2.read_text() == post.read_text()
    for out in (post2, result):
        doc = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert doc["parameters"]["posterior"] == str(post2)
        assert doc["parameters"]["output"] == str(result)
    assert set(json.loads(result.read_text())) == {
        "energy_j", "interval", "log_evidence", "max_admissible_n", "mean", "mode", "n_observations",
    }


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["infer", "-m", "{tmp}/nonexistent.csv", "--n", "1"], "nonexistent.csv"),
        (["infer", "-m", "{matrix}", "--obs", "{tmp}/missing.txt"], "missing.txt"),
        (["simulate", "--config", "{tmp}/nope.json", "--mu", "1", "--shots", "10", "--seed", "1",
          "-o", "{tmp}/z.csv"], "nope.json"),
        (["simulate", "--preset", "rapid32", "--mu", "1", "--shots", "10", "--seed", "1",
          "-o", "{tmp}/missing_dir/z.csv"], "z.csv"),
    ],
    ids=["matrix", "obs", "config", "output-dir"],
)
def test_missing_path_exits_3(matrix_file, tmp_path, capsys, argv, missing):
    argv = [a.format(tmp=tmp_path, matrix=matrix_file) for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("binflux: file error:") and missing in err


def test_infer_degenerate_evidence_exits_5(tmp_path, capsys):
    system = SystemConfig(
        name="tiny",
        multiplexer=MultiplexerSpec(loop_delays=(1e-9,), transmission=UniformLoss(0.0)),
        detector=DetectorSpec(
            efficiency=0.5, dark_prob_per_gate=(0.0, 0.0), gate_width=1e-9, deadtime=0.0
        ),
    )
    rows = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.4, 0.4, 0.2, 0.0, 0.0],
            [0.2, 0.4, 0.4, 0.0, 0.0],
        ]
    )
    matrix = ResponseMatrix(
        system=system,
        rows=rows,
        provenance=tuple(RowProvenance(kind="exact") for _ in range(3)),
        method="exact",
    )
    path = tmp_path / "degenerate.csv"
    save_matrix(matrix, path)
    rc = main(["infer", "-m", str(path), "--n", "3", "--no-stability"])
    assert rc == 5
    assert "degenerate" in capsys.readouterr().err


def test_compare_smoke(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    rc = main(
        [
            "compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "200",
            "--trials", "8", "--seed", "3", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shots,rel_err_multiplexed,rel_err_single_pixel"
    assert len(lines) == 1 + 200
    summary = capsys.readouterr().out
    assert "advantage" in summary and "single-pixel 4506 shots" in summary
    assert (tmp_path / "compare.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "target, seed",
    [("0", "3"), ("-0.5", "3"), ("nan", "3"), ("inf", "3"), ("1e-200", "3"), ("inf", "1"), ("nan", "1")],
    ids=["0", "-0.5", "nan", "inf", "1e-200", "inf-seed-1", "nan-seed-1"],
)
def test_compare_rejects_target_before_writing(tmp_path, capsys, target, seed):
    out = tmp_path / "compare.csv"
    rc = main(
        ["compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2",
         "--seed", seed, f"--target={target}", "-o", str(out)]
    )
    assert rc == 2
    assert "target" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "compare.csv.manifest.json").exists()


def test_compare_rejects_a_dim_mu_before_the_curve(tmp_path, capsys, monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("the curve was computed for a --mu the baseline rejects")

    monkeypatch.setattr(cli, "relative_error_curve", no_curve)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--preset", "rapid32", "--mu", "3", "--seed", "1", "-o", str(out)]) == 2
    with pytest.raises(ValueError) as exc:
        baseline_error_curve(3.0, 400)
    assert capsys.readouterr().err == f"binflux: usage error: {exc.value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--max-shots", "5", "--level", "1.5"],
        ["compare", "--max-shots", "5", "--level", "nan"],
        ["sweep", "--over", "shots", "--values", "3,5", "--level", "0"],
    ],
    ids=["compare-1.5", "compare-nan", "sweep-0"],
)
def test_convergence_rejects_level_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "curve.csv"
    rc = main(argv + ["--preset", "rapid32", "--mu", "100", "--trials", "2", "--seed", "1", "-o", str(out)])
    assert rc == 2
    level = argv[argv.index("--level") + 1]
    assert capsys.readouterr().err == f"binflux: usage error: level must be a real number in (0, 1), got {float(level)!r}\n"
    assert not out.exists() and not (tmp_path / "curve.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "mu_max, argv, message",
    [
        (400, ["--n", "1", "--wavelength", "nan", "--posterior", "{tmp}/post.csv"],
         "wavelength must be a real number in (0, inf), got nan"),
        (400, ["--n", "1", "--wavelength", "inf", "--posterior", "{tmp}/post.csv"],
         "wavelength must be a real number in (0, inf), got inf"),
        (400, ["--n", "1", "--tolerance", "nan", "--posterior", "{tmp}/post.csv"],
         "tolerance must be a real number in (0, inf), got nan"),
        (400, ["--n", "1", "--max-n", "-1", "--posterior", "{tmp}/post.csv"], "--max-n must be an integer >= 0, got -1"),
        (100, ["--n", "3", "--wavelength", "nan"], "wavelength must be a real number in (0, inf), got nan"),
        (100, ["--n", "3", "--tolerance", "nan"], "tolerance must be a real number in (0, inf), got nan"),
        (100, ["--n", "3", "--max-n", "-1"], "--max-n must be an integer >= 0, got -1"),
    ],
    ids=[
        "wavelength-nan", "wavelength-inf", "tolerance-nan", "max-n-negative",
        "mu-max-100-wavelength-nan", "mu-max-100-tolerance-nan", "mu-max-100-max-n-negative",
    ],
)
def test_infer_rejects_bad_numbers_before_writing(rapid32_matrix_file, tmp_path, capsys, mu_max, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc = main(["infer", "-m", str(rapid32_matrix_file(mu_max)), *argv, "-o", str(tmp_path / "result.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"binflux: usage error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_infer_warns_once_on_a_tampered_fingerprint(rapid32_matrix_file, tmp_path):
    # The stored fingerprint only checks the embedded configuration, which infer trusts:
    # a file whose fingerprint is zeroed warns once and gives the clean file's result.
    clean = rapid32_matrix_file(100)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(re.sub("fingerprint=[0-9a-f]*", "fingerprint=" + "0" * 64, clean.read_text(), count=1))
    assert main(["infer", "-m", str(clean), "--n", "3", "-o", str(tmp_path / "clean.json")]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["infer", "-m", str(tampered), "--n", "3", "-o", str(tmp_path / "tampered.json")]) == 0
    assert sum("does not match the embedded configuration" in str(w.message) for w in caught) == 1
    assert (tmp_path / "tampered.json").read_bytes() == (tmp_path / "clean.json").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["matrix", "--mu-max", "0"], "mu_max must be an integer in [1, 9223372036854775806], got 0"),
        (["compare", "--mu", "100", "--trials", "2", "--max-shots", "5", "--seed", "1", "--mu-max", "0"],
         "mu_max must be an integer in [1, 4611686018427387903], got 0"),
        (["sweep", "--over", "shots", "--values", "1,5", "--mu", "100", "--seed", "1", "--mu-max", "0"],
         "mu_max must be an integer in [1, 4611686018427387903], got 0"),
        # Before, these printed an OverflowError traceback and exited 1.
        (["matrix", "--mu-max", str(10**400)], f"mu_max must be an integer in [1, 9223372036854775806], got {10**400}"),
        (["compare", "--mu", "100", "--seed", "1", "--mu-max", str(10**400)],
         f"mu_max must be an integer in [1, 4611686018427387903], got {10**400}"),
        (["sweep", "--over", "shots", "--values", "1,5", "--mu", "100", "--seed", "1", "--mu-max", str(10**400)],
         f"mu_max must be an integer in [1, 4611686018427387903], got {10**400}"),
        (["matrix", "--mu-max", "5", "--method", "mc", "--seed", "1", "--shots", "0"],
         "n_shots must be an integer >= 1, got 0"),
        (["matrix", "--support", "3,9", "--mu-max", "5"], "support[1] must be an integer in [0, 5], got 9"),
    ],
    ids=[
        "matrix-mu-max", "compare-mu-max", "sweep-mu-max", "matrix-huge-mu-max", "compare-huge-mu-max",
        "sweep-huge-mu-max", "matrix-shots", "matrix-support",
    ],
)
def test_bad_build_matrix_argument_exits_2_before_writing(tmp_path, capsys, argv, message):
    # Before, build_matrix raised ConfigurationError for these, so they exited 3 as a configuration error.
    assert main([*argv, "--preset", "rapid32", "-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"binflux: usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, code, label",
    [
        (["infer", "-m", "{bad}.csv", "--n", "1"], 3, "matrix file error"),
        (["matrix", "--config", "{bad}.json", "--mu-max", "5"], 3, "configuration error"),
        (["infer", "-m", "{matrix}", "--obs", "{bad}.txt"], 2, "usage error"),
    ],
    ids=["matrix", "config", "obs"],
)
def test_non_utf8_input_file_is_named_in_the_error(matrix_file, tmp_path, capsys, argv, code, label):
    # Before, each exited 2 with the bare decoder message, which names no file.
    bad = tmp_path / "bad"
    argv = [a.format(bad=bad, matrix=matrix_file) for a in argv]
    path = next(a for a in argv if a.startswith(str(bad)))
    Path(path).write_bytes(b"\xff1\n")
    assert main([*argv, "-o", str(tmp_path / "out.json")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"binflux: {label}: ") and path in err and "can't decode byte 0xff" in err
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_compare_rejects_nan_tolerance_before_writing(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    argv = ["compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2", "--seed", "1"]
    assert main([*argv, "--tolerance", "nan", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "binflux: usage error: tolerance must be a real number in (0, inf), got nan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "target, percent, gates",
    [
        ("0.1", "10%", "4506"), ("0.05", "5%", "18024"), ("7e-3", "0.7%", "919549"),
        ("6.7e-3", "0.67%", "1.004e+06"), ("1e-3", "0.1%", "4.506e+07"), ("1e-150", "1e-148%", "4.506e+301"),
    ],
)
def test_compare_summary_stays_readable_for_tiny_targets(tmp_path, capsys, target, percent, gates):
    # The target reads as a percentage to 3 significant digits, and a gate
    # count of 10**6 or more in 4 significant digits rather than every digit.
    out = tmp_path / "compare.csv"
    rc = main(
        ["compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2",
         "--seed", "3", f"--target={target}", "-o", str(out)]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    assert f"to reach {percent} relative width at mu=100.0: " in summary
    assert f"single-pixel {gates} shots (full width)" in summary
    assert not re.search(r"\d{8}", summary)


def test_sweep_over_mu(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep", "--preset", "conventional16", "--over", "mu", "--values", "1,5",
            "--shots", "2000", "--seed", "2", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,n,count,probability,probability_exact"
    assert len(lines) == 1 + 2 * 17


def test_sweep_over_shots(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep", "--preset", "rapid32", "--over", "shots", "--values", "10,50",
            "--mu", "100", "--trials", "5", "--seed", "2", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shots,median_rel_err,q25_rel_err,q75_rel_err"
    assert len(lines) == 3
    med10 = float(lines[1].split(",")[1])
    med50 = float(lines[2].split(",")[1])
    assert med50 < med10


def test_sweep_shots_requires_mu(tmp_path):
    rc = main(
        ["sweep", "--preset", "rapid32", "--over", "shots", "--values", "10",
         "--seed", "2", "-o", str(tmp_path / "s.csv")]
    )
    assert rc == 2


@pytest.mark.parametrize("values", ["0,5", "-3,5", "5,0"])
def test_sweep_over_shots_rejects_values_below_one(tmp_path, capsys, values):
    out = tmp_path / "s.csv"
    rc = main(
        ["sweep", "--preset", "rapid32", "--over", "shots", f"--values={values}", "--mu", "100",
         "--trials", "2", "--seed", "2", "-o", str(out)]
    )
    assert rc == 2
    smallest = min(int(v) for v in values.split(","))
    assert f"--values: shot counts must be an integer >= 1, got {smallest}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["-1,5", "5,-1", "-7,-1"])
def test_sweep_over_mu_rejects_negative_values(tmp_path, capsys, values):
    # The message names the option and the smallest value, not the whole list.
    out = tmp_path / "s.csv"
    rc = main(
        ["sweep", "--preset", "rapid32", "--over", "mu", f"--values={values}", "--shots", "10",
         "--seed", "2", "-o", str(out)]
    )
    assert rc == 2
    smallest = min(int(v) for v in values.split(","))
    assert f"--values: mu must be an integer >= 0, got {smallest}\n" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv, command, option",
    [
        (["sweep", "--over", "mu", "--values", "1,x", "--seed", "2"], "sweep", "--values"),
        (["matrix", "--mu-max", "5", "--support", "2.5"], "matrix", "--support"),
    ],
    ids=["sweep-values", "matrix-support"],
)
def test_a_list_that_is_not_integers_is_an_argparse_error(tmp_path, capsys, argv, command, option):
    text = argv[argv.index(option) + 1]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--preset", "rapid32", "-o", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"binflux {command}: error: argument {option}: expected a comma-separated integer list, got {text!r}"
    assert list(tmp_path.iterdir()) == []


def test_sweep_values_of_only_commas_is_a_usage_error(tmp_path, capsys):
    argv = ["sweep", "--preset", "rapid32", "--over", "mu", "--values", ",", "--seed", "2"]
    assert main([*argv, "-o", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == "binflux: usage error: --values must name at least one integer\n"
    assert list(tmp_path.iterdir()) == []


def test_infer_inconsistent_matrix_is_format_error(matrix_file, tmp_path, capsys):
    bad = tmp_path / "banana.csv"
    bad.write_text(matrix_file.read_text().replace("method=exact", "method=banana", 1))
    assert main(["infer", "-m", str(bad), "--n", "20"]) == 3
    assert "method must be 'exact' or 'mc'" in capsys.readouterr().err


MANIFEST_PARAMETERS = {
    "simulate": {"fock", "format", "mu", "output", "seed", "shots", "workers"},
    "matrix": {"method", "mu_max", "output", "seed", "shots", "support", "workers"},
    "infer": {
        "force", "level", "matrix", "max_n", "n", "no_stability", "obs", "output", "posterior",
        "tolerance", "wavelength",
    },
    "compare": {
        "baseline_convention", "level", "max_shots", "mu", "mu_max", "output", "seed", "target",
        "tolerance", "trials", "workers",
    },
    "sweep": {
        "level", "mu", "mu_max", "output", "over", "seed", "shots", "tolerance", "trials", "values",
        "workers",
    },
}


def _manifest_parameters(out):
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    return manifest["command"], manifest["parameters"]


def test_manifest_parameters_are_the_parsed_options(matrix_file, tmp_path):
    cfg = tmp_path / "sys.json"
    save_system(preset("conventional16"), cfg)
    runs = {
        "simulate": ["--config", str(cfg), "--mu", "3", "--shots", "100", "--seed", "1"],
        "matrix": ["--preset", "conventional16", "--mu-max", "8", "--support", "0,2,8"],
        "infer": ["-m", str(matrix_file), "--n", "1"],
        "compare": ["--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2",
                    "--mu-max", "150", "--seed", "3"],
        "sweep": ["--preset", "conventional16", "--over", "mu", "--values", "1,5", "--shots", "100",
                  "--seed", "2"],
    }
    for command, args in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *args, "-o", str(out)]) == 0
        recorded_command, params = _manifest_parameters(out)
        assert recorded_command == command
        assert set(params) == MANIFEST_PARAMETERS[command], command
        assert params["output"] == str(out)
    assert _manifest_parameters(tmp_path / "simulate.csv")[1]["mu"] == 3.0
    matrix_params = _manifest_parameters(tmp_path / "matrix.csv")[1]
    assert matrix_params["support"] == [0, 2, 8]
    assert matrix_params["shots"] == 1_000_000  # as parsed, also for --method exact
    assert _manifest_parameters(tmp_path / "sweep.csv")[1]["values"] == [1, 5]
    assert _manifest_parameters(tmp_path / "compare.csv")[1]["target"] == 0.10


def test_sweep_over_shots_matches_compare(tmp_path):
    common = ["--preset", "rapid32", "--mu", "100", "--trials", "5", "--mu-max", "200", "--seed", "4"]
    sweep, compare = tmp_path / "sweep.csv", tmp_path / "compare.csv"
    assert main(["sweep", "--over", "shots", "--values", "10,50", *common, "-o", str(sweep)]) == 0
    assert main(["compare", "--max-shots", "50", *common, "-o", str(compare)]) == 0
    swept = {row.split(",")[0]: row.split(",")[1] for row in sweep.read_text().splitlines()[1:]}
    compared = {row.split(",")[0]: row.split(",")[1] for row in compare.read_text().splitlines()[1:]}
    assert set(swept) == {"10", "50"}
    assert swept == {k: compared[k] for k in swept}


def _count_build_calls(monkeypatch):
    """Count build_matrix calls made through cli and through inference."""
    calls = []
    for module in (cli, inference):
        original = module.build_matrix

        def counting(*args, _original=original, **kwargs):
            calls.append(args[1])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "build_matrix", counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--max-shots", "20"],
        ["sweep", "--over", "shots", "--values", "5,20"],
    ],
    ids=["compare", "sweep-shots"],
)
def test_convergence_builds_one_matrix(monkeypatch, tmp_path, argv):
    calls = _count_build_calls(monkeypatch)
    common = ["--preset", "rapid32", "--mu", "100", "--trials", "3", "--mu-max", "200", "--seed", "4"]
    assert main([*argv, *common, "-o", str(tmp_path / "out.csv")]) == 0
    assert calls == [400]


def test_convergence_curve_equals_separate_builds(rapid32):
    args = cli.build_parser().parse_args(
        ["compare", "--preset", "rapid32", "--mu", "80", "--trials", "4", "--mu-max", "150",
         "--seed", "6", "--tolerance", "0.02", "-o", "unused.csv"]
    )
    curve = cli._convergence(args, rapid32, 60)
    cutoff = stability_max_n(rapid32, 150, 0.02)
    ref = relative_error_curve(
        rapid32, build_matrix(rapid32, 150), 80.0, 60, 4, 6, level=0.90, max_admissible_n=cutoff
    )
    assert np.array_equal(curve.rel_err, ref.rel_err)


def test_mc_matrix_records_the_mc2_stream(tmp_path):
    # The stream is mc4 since its words come from PCG64DXSM; the test keeps its name.
    out = tmp_path / "mc.csv"
    args = ["matrix", "--preset", "rapid32", "--mu-max", "20", "--method", "mc", "--shots", "2000", "--seed", "3"]
    assert main([*args, "-o", str(out)]) == 0
    tokens = out.read_text().splitlines()[2].removeprefix("# provenance: ").split(";")
    assert len(tokens) == 21 and all(t.startswith("mc4:2000:") for t in tokens)
    manifest = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
    assert manifest["versions"]["kernel"] == "mc4"
    assert main(["infer", "-m", str(out), "--n", "3", "--no-stability", "-o", str(tmp_path / "r.json")]) == 0


SEEDED_COMMANDS = {
    "simulate": ["simulate", "--preset", "rapid32", "--mu", "5", "--shots", "10"],
    "matrix": ["matrix", "--preset", "rapid32", "--mu-max", "5", "--method", "mc", "--shots", "10"],
    "compare": ["compare", "--preset", "rapid32", "--mu", "100", "--trials", "2", "--max-shots", "5"],
    "sweep-mu": ["sweep", "--preset", "rapid32", "--over", "mu", "--values", "1,5", "--shots", "10"],
    "sweep-shots": ["sweep", "--preset", "rapid32", "--over", "shots", "--values", "1,5", "--mu", "100"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_exits_2_and_names_the_seed(tmp_path, capsys, command):
    # Before, numpy's "expected non-negative integer" escaped, naming neither the seed nor its value.
    out = tmp_path / "out.csv"
    assert main([*SEEDED_COMMANDS[command], "--seed", "-1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "binflux: usage error: seed must be an integer >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_over_mu_csv_matches_per_value_construction(rapid32, tmp_path):
    # One all-mu exact call gives the same bytes as one exact row per value,
    # also for an unsorted list with a repeat; sweep walks the sorted distinct values
    # and simulates value mu as matrix --method mc simulates row mu, on the words of derive_seed(seed).
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "rapid32", "--over", "mu", "--values", "0,1,10,100,400,10"]
    assert main(argv + ["--shots", "500", "--seed", "5", "-o", str(out)]) == 0
    weights = rapid32.bin_weights()
    given = (0, 1, 10, 100, 400, 10)
    exact = {mu: coherent_click_distribution(float(mu), weights, rapid32.detector).probs for mu in given}
    for mu, row in zip(given, coherent_click_rows(given, weights, rapid32.detector)):
        assert np.array_equal(row, exact[mu])
    lines = ["mu,n,count,probability,probability_exact"]
    for mu in sorted(set(given)):
        batch = simulate_batch(Coherent(float(mu)), weights, rapid32.detector, 500, derive_seed(5))
        for n, c in enumerate(batch.histogram):
            lines.append(f"{mu},{n},{c},{_fmt(c / batch.n_shots)},{_fmt(exact[mu][n])}")
    assert out.read_text() == "\n".join(lines) + "\n"


def test_sweep_over_mu_walks_sorted_distinct_values(tmp_path, capsys):
    # --over mu walks the same grid as --over shots: a repeat adds no block, and the order is ascending.
    argv = ["sweep", "--preset", "conventional16", "--over", "mu", "--shots", "200", "--seed", "4"]
    once, twice, reversed_ = tmp_path / "once.csv", tmp_path / "twice.csv", tmp_path / "reversed.csv"
    assert main([*argv, "--values", "1,5", "-o", str(once)]) == 0
    assert capsys.readouterr().out.endswith("sweep over mu at 2 points\n")
    assert main([*argv, "--values", "5,1,5", "-o", str(twice)]) == 0
    assert capsys.readouterr().out.endswith("sweep over mu at 2 points\n")
    assert main([*argv, "--values", "5,1", "-o", str(reversed_)]) == 0
    assert twice.read_bytes() == reversed_.read_bytes() == once.read_bytes()
    assert len(once.read_text().splitlines()) == 1 + 2 * 17


@pytest.fixture(scope="module")
def mechanistic_config(tmp_path_factory, mechanistic32):
    path = tmp_path_factory.mktemp("mechanistic") / "mech.json"
    save_system(mechanistic32, path)
    return path


@pytest.fixture(scope="module")
def mechanistic_matrix(mechanistic_config):
    path = mechanistic_config.with_suffix(".csv")
    argv = ["matrix", "--config", str(mechanistic_config), "--method", "exact", "--mu-max", "100"]
    assert main(argv + ["-o", str(path)]) == 0
    return path


def test_matrix_exact_on_mechanistic_config(mechanistic_matrix, mechanistic32):
    m = load_matrix(mechanistic_matrix)
    assert m.method == "exact" and {p.kind for p in m.provenance} == {"exact"}
    assert np.array_equal(m.rows, build_matrix(mechanistic32, 100).rows)


def test_infer_on_mechanistic_matrix_enforces_cutoff(mechanistic_matrix, capsys):
    assert main(["infer", "-m", str(mechanistic_matrix), "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_admissible_n"] == 3
    assert captured.err == ""
    for n in ("4", "20"):
        assert main(["infer", "-m", str(mechanistic_matrix), "--n", n]) == 4
        assert "stability cutoff 3" in capsys.readouterr().err


def test_compare_on_mechanistic_config(mechanistic_config, tmp_path):
    out = tmp_path / "compare.csv"
    argv = ["compare", "--config", str(mechanistic_config), "--mu", "100", "--max-shots", "50"]
    assert main(argv + ["--trials", "5", "--seed", "3", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 50


def test_compare_reports_target_not_reached(mechanistic_config, tmp_path, capsys):
    # The CI invocation: the median trial stays above 10% within 50 shots,
    # so there is no shot count to form an advantage ratio from.
    out = tmp_path / "compare.csv"
    argv = ["compare", "--config", str(mechanistic_config), "--mu", "100", "--trials", "5"]
    assert main(argv + ["--max-shots", "50", "--seed", "1", "-o", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "multiplexed (median) not reached within --max-shots 50" in summary
    assert "single-pixel 4506 shots" in summary
    assert "advantage" not in summary and "inf" not in summary
    assert len(out.read_text().splitlines()) == 1 + 50


def test_sweep_over_mu_on_mechanistic_writes_exact_column(mechanistic_config, mechanistic32, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(mechanistic_config), "--over", "mu", "--values", "1,100"]
    assert main(argv + ["--shots", "2000", "--seed", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,n,count,probability,probability_exact"
    exact = np.array([float(line.split(",")[4]) for line in lines[1:]]).reshape(2, 33)
    assert np.array_equal(exact, build_matrix(mechanistic32, 100).rows[[1, 100]])


def test_sweep_over_mu_rows_equal_the_mc_matrix_rows(rapid32, tmp_path):
    # One seeding rule: sweep value mu and matrix --method mc row mu are both decided on the
    # shared words of derive_seed(seed), whichever other values or rows come with them.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "rapid32", "--over", "mu", "--values", "0,3,7,20"]
    assert main(argv + ["--shots", "400", "--seed", "9", "-o", str(out)]) == 0
    probs = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
    matrix = build_matrix(rapid32, 20, "mc", n_shots=400, seed=9)
    assert np.array(probs).tobytes() == matrix.rows[[0, 3, 7, 20]].tobytes()


@pytest.mark.parametrize("name", ["rapid32", "mechanistic"])
def test_simulate_fock200_is_within_the_oracle_bound(name, rapid32, mechanistic32, mechanistic_config, tmp_path):
    # The simulated Fock(200) click histogram against the exact Fock law: TV <= sqrt(33 / N) over
    # its 33 click-count cells and N = 20000 shots.
    system, where = (rapid32, ["--preset", "rapid32"]) if name == "rapid32" else (
        mechanistic32, ["--config", str(mechanistic_config)]
    )
    out = tmp_path / f"{name}.json"
    argv = ["simulate", *where, "--fock", "200", "--shots", "20000", "--seed", "1", "--format", "json"]
    assert main(argv + ["-o", str(out)]) == 0
    hist = np.array(json.loads(out.read_text())["histogram"])
    exact = fock_click_distribution(200, system.bin_weights(), system.detector).probs
    assert total_variation(hist / hist.sum(), exact) <= math.sqrt(33 / 20000)


@pytest.mark.parametrize(
    "mu_field, mu_max",
    [("inf", 400), ("1.9", 400), ("nan", 400), ("inf", 40), ("1.9", 40)],
    ids=["inf", "1.9", "nan", "inf-mu-max-40", "1.9-mu-max-40"],
)
def test_infer_bad_csv_mu_field_exits_3(rapid32_matrix_file, tmp_path, capsys, mu_field, mu_max):
    # Before, "inf" ended in a traceback (exit 1), "nan" in a usage error
    # (exit 2) and "1.9" loaded as row 1.
    bad = tmp_path / "mu.csv"
    lines = rapid32_matrix_file(mu_max).read_text().splitlines()
    lines[5] = mu_field + lines[5][lines[5].index(","):]
    bad.write_text("\n".join(lines) + "\n")
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert capsys.readouterr().err.startswith(f"binflux: matrix file error: {bad}:6: expected mu=1, got {mu_field}")


def _json_matrix_with_cell(source: Path, bad: Path, row: int, col: int, value) -> None:
    """Write the JSON matrix source to bad, with cell (row, col) replaced by value(cell)."""
    doc = json.loads(source.read_text())
    doc["rows"][row][col] = value(doc["rows"][row][col])
    bad.write_text(json.dumps(doc))


# (mu_max, row, column) of each edited cell: two grids, two places in the file.
JSON_CELLS = [(400, 7, 3), (40, 3, 2)]


def test_infer_quoted_json_cell_exits_3(rapid32_matrix_file, tmp_path, capsys):
    bad = tmp_path / "quoted.json"
    for mu_max, row, col in JSON_CELLS:
        _json_matrix_with_cell(rapid32_matrix_file(mu_max, "json"), bad, row, col, str)
        assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
        assert capsys.readouterr().err.startswith(
            f"binflux: matrix file error: {bad}: row {row}: expected 33 JSON numbers"
        )


def test_infer_json_cell_past_the_double_range_exits_3(rapid32_matrix_file, tmp_path, capsys):
    # Before, the OverflowError from the float conversion ended in a traceback (exit 1).
    bad = tmp_path / "huge.json"
    for mu_max, row, col in JSON_CELLS:
        _json_matrix_with_cell(rapid32_matrix_file(mu_max, "json"), bad, row, col, lambda _: 10**400)
        assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
        assert capsys.readouterr().err.startswith(
            f"binflux: matrix file error: {bad}: row {row}: number too large for a double"
        )


HUGE = "1" + "0" * 5000  # a JSON integer of 5001 digits, past Python's int-to-str digit limit


def _edited(path: Path, bad: Path, old: str, new: str) -> Path:
    """Write path's text to bad with the first old replaced by new."""
    text = path.read_text()
    assert old in text
    bad.write_text(text.replace(old, new, 1))
    return bad


def test_a_number_past_the_digit_limit_exits_3_naming_the_file(rapid32_matrix_file, tmp_path, capsys):
    # json.loads refuses HUGE with a plain ValueError, not a JSONDecodeError, so
    # before, each of these escaped the file's handler and exited 2 as a usage error.
    with pytest.raises(ValueError) as refused:
        json.loads(HUGE)
    why = str(refused.value)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(config_mod.system_to_dict(preset("rapid32"))))
    matrix_json, matrix_csv = rapid32_matrix_file(40, "json"), rapid32_matrix_file(40)
    _json_matrix_with_cell(matrix_json, tmp_path / "marked.json", 3, 2, lambda _: "HUGE")
    efficiency = '"efficiency": 0.165'
    cases = [
        (["matrix", "--config", str(_edited(config, tmp_path / "c1.json", efficiency, f'"efficiency": {HUGE}')),
          "--mu-max", "5", "-o", str(tmp_path / "m.csv")],
         f"configuration error: config file {tmp_path / 'c1.json'}: invalid JSON ({why})"),
        (["infer", "-m", str(_edited(matrix_json, tmp_path / "config.json", efficiency, f'"efficiency": {HUGE}')),
          "--n", "1"],
         f"matrix file error: {tmp_path / 'config.json'}: invalid JSON ({why})"),
        (["infer", "-m", str(_edited(tmp_path / "marked.json", tmp_path / "cell.json", '"HUGE"', HUGE)),
          "--n", "1"],
         f"matrix file error: {tmp_path / 'cell.json'}: invalid JSON ({why})"),
        (["infer", "-m", str(_edited(matrix_csv, tmp_path / "config.csv", '"efficiency":0.165', f'"efficiency":{HUGE}')),
          "--n", "1"],
         f"matrix file error: {tmp_path / 'config.csv'}:2: bad embedded config ({why})"),
        (["infer", "-m", str(_edited(matrix_csv, tmp_path / "header.csv", "mu_max=40", f"mu_max={HUGE}")),
          "--n", "1"],
         f"matrix file error: {tmp_path / 'header.csv'}:1: malformed header line"),
    ]
    for argv, message in cases:
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"binflux: {message}\n"


def test_matrix_file_and_config_errors_have_their_own_labels(matrix_file, tmp_path, capsys):
    # A malformed matrix file and a bad --config both exit 3, but the
    # message names which of the two inputs is at fault.
    bad = tmp_path / "mu.csv"
    lines = matrix_file.read_text().splitlines()
    lines[5] = "inf" + lines[5][lines[5].index(","):]
    bad.write_text("\n".join(lines) + "\n")
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert capsys.readouterr().err.startswith(f"binflux: matrix file error: {bad}:6: expected mu=1")
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"name": "bad"}))
    assert main(["simulate", "--config", str(config), "--mu", "1", "--shots", "10", "--seed", "1",
                 "-o", str(tmp_path / "h.csv")]) == 3
    assert capsys.readouterr().err.startswith("binflux: configuration error: ")
