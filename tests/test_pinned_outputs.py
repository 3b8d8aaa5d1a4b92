"""Pinned output bytes of the command line, one sha256 per file.

Each command runs through cli.main in a fresh directory, in the order
listed, so infer reads the rapid32 matrix written before it. The
mechanistic config is rapid32 with the mechanistic undershoot at
p_miss_next 0.3, made from `presets --json` as a user would make it.

The simulate files draw Monte Carlo shots, so their pins move only with
the stream version (mc_engine.MC_KERNEL). The compare and sweep files run
the convergence curve, whose counts are inverse-CDF draws from the exact
law (inference._curve_counts), so their pins move with that draw rule, not
with MC_KERNEL. The exact matrices and infer draw nothing, and neither
change may move them.
"""

import contextlib
import hashlib
import io
import json

import pytest

from binflux.cli import main

# file -> (argv without -o, sha256 of the file), grouped as the three pinning steps of the CI
# workflow were; {mech} is the mechanistic config and {dir} the output directory.
PINS = {
    "simulate/coherent.csv": (
        ["simulate", "--preset", "rapid32", "--mu", "100", "--shots", "20000", "--seed", "1"],
        "c21a33b9b9ec7b13742813a5b174f09d9c8dd4c165b6d72b7be26d15a1bf91ab",
    ),
    "simulate/fock200.csv": (
        ["simulate", "--preset", "rapid32", "--fock", "200", "--shots", "20000", "--seed", "1"],
        "9a0e4c8e3dcf631e71416fc7b7ecbb110abcaf0bb3260fcfd13adcf561d4f4f9",
    ),
    "simulate/mech.csv": (
        ["simulate", "--config", "{mech}", "--mu", "100", "--shots", "20000", "--seed", "1"],
        "b15f019925ad91049080730ba5bc2b5f248db8d7b686219555aa8960cfe8843b",
    ),
    "simulate/mech_fock200.csv": (
        ["simulate", "--config", "{mech}", "--fock", "200", "--shots", "20000", "--seed", "1"],
        "acc5f288a05ce25204863b71e8fdb641ff939bcb6a3f58d17dc66a3d3d99ad22",
    ),
    "matrix/rapid32.csv": (
        ["matrix", "--preset", "rapid32", "--mu-max", "400"],
        "5c397ed3d9e560c22e453dab8749714bd9712a08113d233a6dcda4935e9d79a1",
    ),
    "matrix/rapid32.json": (
        ["matrix", "--preset", "rapid32", "--mu-max", "400"],
        "002d3129b653e727f31c6b4083fef2f90e9e4294faa86d792d884458996dfd0a",
    ),
    "matrix/mech.csv": (
        ["matrix", "--config", "{mech}", "--mu-max", "100"],
        "216149817a94392a017f3e4ecba633fc1a92fb69d141c8af1061edc653a6e987",
    ),
    "matrix/mech.json": (
        ["matrix", "--config", "{mech}", "--mu-max", "100"],
        "012ee4e314a243cb2b2b76a7a01bff876053b9070c27f493471f4f23d557af8b",
    ),
    "matrix/infer.json": (
        ["infer", "-m", "{dir}/matrix/rapid32.csv", "--n", "1"],
        "17f6c2a7772eda9ec2393c27a2ccd5a83695a8de0433112a74ad83c4c46b77fa",
    ),
    "matrix/compare.csv": (
        ["compare", "--preset", "rapid32", "--mu", "100", "--trials", "10", "--seed", "1"],
        "d338c6735152e0a3613072b58e103dcee7dbdd5a8b04bb1b4926055fb19923a2",
    ),
    "sweep/sweep.csv": (
        ["sweep", "--preset", "rapid32", "--over", "shots", "--values", "1,10,100,400", "--mu", "100", "--seed", "1"],
        "318f35ec378627e92aeed08be933ed4119f4e19c202c53b22de7291905580bca",
    ),
}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """Run every pinned command once, in order, and return the sha256 of each file."""
    out = tmp_path_factory.mktemp("pinned")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["presets", "--json"]) == 0
    config = json.loads(stdout.getvalue())["rapid32"]
    config["detector"]["undershoot"] = {"kind": "mechanistic", "p_miss_next": 0.3}
    mech = out / "mech.config.json"
    mech.write_text(json.dumps(config))
    digests = {}
    for name, (argv, _) in PINS.items():
        path = out / name
        path.parent.mkdir(exist_ok=True)
        argv = [a.format(mech=mech, dir=out) for a in argv]
        assert main([*argv, "-o", str(path)]) == 0, name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", list(PINS))
def test_output_bytes_are_pinned(pinned_run, name):
    assert pinned_run[name] == PINS[name][1]
