import json
import re
from pathlib import Path

import numpy as np
import pytest

import binflux
import binflux.cli as cli
import binflux.inference as inference
from binflux import (
    Coherent,
    DetectorSpec,
    MultiplexerSpec,
    ResponseMatrix,
    SystemConfig,
    UniformLoss,
    build_matrix,
    coherent_click_distribution,
    fingerprint,
    load_matrix,
    relative_error_curve,
    save_matrix,
    save_system,
    simulate_batch,
    stability_max_n,
)
from binflux.cli import _fmt, main
from binflux.response_matrix import RowProvenance


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "rapid32.csv"
    assert main(["matrix", "--preset", "rapid32", "--mu-max", "400", "-o", str(path)]) == 0
    return path


def test_version_agrees_across_package_project_and_cli(capsys):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert binflux.__version__ == declared == "0.4.0"
    assert capsys.readouterr().out == "binflux 0.4.0\n"


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


def test_simulate_source_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["simulate", "--preset", "rapid32", "--shots", "10", "--seed", "1", "-o", out]
    assert main(base) == 2
    assert main(base + ["--mu", "2", "--fock", "3"]) == 2


def test_system_source_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = tmp_path / "sys.json"
    save_system(preset("rapid32"), cfg)
    args = ["simulate", "--mu", "2", "--shots", "10", "--seed", "1", "-o", out]
    assert main(args) == 2
    assert main(args + ["--preset", "rapid32", "--config", str(cfg)]) == 2
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


def test_infer_cutoff_override(matrix_file):
    assert main(["infer", "-m", str(matrix_file), "--n", "20", "--max-n", "20"]) == 0
    assert main(["infer", "-m", str(matrix_file), "--n", "20", "--no-stability"]) == 0


def test_infer_impossible_count(matrix_file, capsys):
    assert main(["infer", "-m", str(matrix_file), "--n", "99"]) == 2
    assert capsys.readouterr().err == "binflux: usage error: click count must be an integer in [0, 32], got 99\n"


@pytest.mark.parametrize("source", ["n", "obs"])
def test_infer_count_past_the_bins_is_a_usage_error_before_the_cutoff(matrix_file, tmp_path, capsys, source):
    # 33 clicks on 32 bins is also above the cutoff 16, which would exit 4;
    # the count rule (inference._click_count) is checked first and writes nothing.
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


def test_infer_requires_one_observation_source(matrix_file, tmp_path):
    assert main(["infer", "-m", str(matrix_file)]) == 2
    obs = tmp_path / "obs.txt"
    obs.write_text("1\n")
    assert main(["infer", "-m", str(matrix_file), "--n", "1", "--obs", str(obs)]) == 2


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


@pytest.mark.parametrize("target", ["0", "-0.5"])
def test_compare_rejects_target_before_writing(tmp_path, capsys, target):
    out = tmp_path / "compare.csv"
    rc = main(
        ["compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2",
         "--seed", "3", f"--target={target}", "-o", str(out)]
    )
    assert rc == 2
    assert "target" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "compare.csv.manifest.json").exists()


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
    assert "level must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "curve.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--wavelength", "nan"], "wavelength must be finite"),
        (["--wavelength", "inf"], "wavelength must be finite"),
        (["--tolerance", "nan"], "tolerance must be finite"),
        (["--max-n", "-1"], "--max-n must be >= 0"),
    ],
    ids=["wavelength-nan", "wavelength-inf", "tolerance-nan", "max-n-negative"],
)
def test_infer_rejects_bad_numbers_before_writing(matrix_file, tmp_path, capsys, argv, message):
    out, post = tmp_path / "result.json", tmp_path / "post.csv"
    rc = main(["infer", "-m", str(matrix_file), "--n", "1", *argv, "-o", str(out), "--posterior", str(post)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_rejects_nan_tolerance_before_writing(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    argv = ["compare", "--preset", "rapid32", "--mu", "100", "--max-shots", "5", "--trials", "2", "--seed", "1"]
    assert main([*argv, "--tolerance", "nan", "-o", str(out)]) == 2
    assert "tolerance must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert "shot counts must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert curve.max_admissible_n == cutoff
    assert np.array_equal(curve.rel_err, ref.rel_err)


def test_mc_matrix_records_the_mc2_stream(tmp_path):
    out = tmp_path / "mc.csv"
    args = ["matrix", "--preset", "rapid32", "--mu-max", "20", "--method", "mc", "--shots", "2000", "--seed", "3"]
    assert main([*args, "-o", str(out)]) == 0
    tokens = out.read_text().splitlines()[2].removeprefix("# provenance: ").split(";")
    assert len(tokens) == 21 and all(t.startswith("mc2:2000:") for t in tokens)
    manifest = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
    assert manifest["versions"]["kernel"] == "mc2"
    assert main(["infer", "-m", str(out), "--n", "3", "--no-stability", "-o", str(tmp_path / "r.json")]) == 0


def test_sweep_over_mu_csv_matches_per_value_construction(rapid32, tmp_path):
    # One all-mu exact call gives the same bytes as one exact row per value.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "rapid32", "--over", "mu", "--values", "0,1,10,100,400,10"]
    assert main(argv + ["--shots", "500", "--seed", "5", "-o", str(out)]) == 0
    weights = rapid32.bin_weights()
    lines = ["mu,n,count,probability,probability_exact"]
    for mu in (0, 1, 10, 100, 400, 10):
        batch = simulate_batch(Coherent(float(mu)), weights, rapid32.detector, 500, 5)
        exact = coherent_click_distribution(float(mu), weights, rapid32.detector).probs
        for n, c in enumerate(batch.histogram):
            lines.append(f"{mu},{n},{c},{_fmt(c / batch.n_shots)},{_fmt(exact[n])}")
    assert out.read_text() == "\n".join(lines) + "\n"


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
    assert main(["infer", "-m", str(mechanistic_matrix), "--n", "4"]) == 4
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


@pytest.mark.parametrize("mu_field", ["inf", "1.9", "nan"])
def test_infer_bad_csv_mu_field_exits_3(matrix_file, tmp_path, capsys, mu_field):
    # Before, "inf" ended in a traceback (exit 1), "nan" in a usage error
    # (exit 2) and "1.9" loaded as row 1.
    bad = tmp_path / "mu.csv"
    lines = matrix_file.read_text().splitlines()
    lines[5] = mu_field + lines[5][lines[5].index(","):]
    bad.write_text("\n".join(lines) + "\n")
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert f"{bad}:6: expected mu=1, got {mu_field}" in capsys.readouterr().err


def test_infer_quoted_json_cell_exits_3(matrix_file, tmp_path, capsys):
    bad = tmp_path / "quoted.json"
    save_matrix(load_matrix(matrix_file), bad)
    doc = json.loads(bad.read_text())
    doc["rows"][7][3] = str(doc["rows"][7][3])
    bad.write_text(json.dumps(doc))
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert f"{bad}: row 7: expected 33 JSON numbers" in capsys.readouterr().err


def test_infer_json_cell_past_the_double_range_exits_3(matrix_file, tmp_path, capsys):
    # Before, the OverflowError from the float conversion ended in a traceback (exit 1).
    bad = tmp_path / "huge.json"
    save_matrix(load_matrix(matrix_file), bad)
    doc = json.loads(bad.read_text())
    doc["rows"][7][3] = 10**400
    bad.write_text(json.dumps(doc))
    assert main(["infer", "-m", str(bad), "--n", "1"]) == 3
    assert capsys.readouterr().err.startswith(
        f"binflux: matrix file error: {bad}: row 7: number too large for a double"
    )


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
