"""The benchmark's three workloads: inputs, operations, digests and checks.

A workload is a fixed list of operations. Each operation calls binflux only
through its public functions or ``binflux.cli.main``, looked up at call time
so the traced run can wrap them. One pass runs every operation once, in
order; an operation may use the outputs of earlier ones in the same pass.
Inputs come from the workload seed alone; the program never sees the seed.

Correctness checks run on the outputs of one pass, outside the timed
region. Every later pass must reproduce that pass's output digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path
from typing import Callable

import numpy as np

import binflux as bf
import binflux.cli  # noqa: F401  (cli is not imported by the package itself)

from checks import ORACLE_TOL, hist_within_tv, matrix_matches_oracle, rows_sum_to_one

SCALES = {
    "full": dict(
        mc_shots=150_000, fock12_shots=100_000, fock200_shots=20_000, mech_shots=100_000,
        sparse_shots=70_000, cal_mu_max=4000, c16_mu_max=1000, sparse_mu_max=2000,
        n_obs=200, max_obs=28, trials=100,
    ),
    "tiny": dict(
        mc_shots=3000, fock12_shots=2000, fock200_shots=500, mech_shots=2000,
        sparse_shots=2000, cal_mu_max=300, c16_mu_max=100, sparse_mu_max=200,
        n_obs=20, max_obs=10, trials=20,
    ),
}

MC_MUS = (1, 10, 100, 400)
SPARSE_MC_SUPPORT = [100, 200, 300]
CONVERGENCE_MU, CONVERGENCE_MU_MAX, CONVERGENCE_SHOTS = 100.0, 400, 400
RAPID32_CUTOFF_400 = 16


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[dict], object]  # takes the outputs of earlier ops in the pass


@dataclasses.dataclass
class CliOutput:
    """Exit code of one in-process cli.main call and the files it wrote."""

    code: int
    paths: list[str]
    files: dict[str, bytes] = dataclasses.field(default_factory=dict)

    def materialize(self) -> None:
        self.files = {p: Path(p).read_bytes() for p in self.paths if Path(p).exists()}


@dataclasses.dataclass
class Workload:
    name: str
    ops: list[Op]
    shots_per_pass: int  # shots simulated, or inferred from, in one pass
    counted: tuple[str, ...]  # the operations that do that work; shots_per_s times them only
    check: Callable[[dict], dict[str, list[str]]]  # op outputs -> problems per op


def api(name: str):
    """binflux.<name>, looked up when called so a tracer can wrap it."""
    return lambda *args, **kwargs: getattr(bf, name)(*args, **kwargs)


def run_cli(argv: list[str], outputs: list[str]) -> CliOutput:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bf.cli.main(argv)
    return CliOutput(code, outputs)


def digest(output) -> str:
    """Hash of what an operation produced: arrays, files, cutoffs, intervals."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, bf.BatchResult):
            feed(x.histogram)
            feed(x.photon_sum)
        elif isinstance(x, bf.ResponseMatrix):
            feed(x.rows)
            h.update(";".join(p.token() for p in x.provenance).encode())
        elif isinstance(x, bf.ClickDistribution):
            feed(x.probs)
        elif isinstance(x, bf.RelativeErrorCurve):
            feed(x.rel_err)
        elif isinstance(x, CliOutput):
            h.update(repr(x.code).encode())
            for path in sorted(x.files):
                h.update(path.encode() + x.files[path])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(output)
    return h.hexdigest()


def _systems():
    r32 = bf.get_preset("rapid32")
    c16 = bf.get_preset("conventional16")
    mech = dataclasses.replace(
        r32,
        name="rapid32-mechanistic",
        detector=dataclasses.replace(r32.detector, undershoot=bf.MechanisticUndershoot(0.3)),
    )
    independent = dataclasses.replace(mech, detector=dataclasses.replace(mech.detector, undershoot=None))
    return r32, c16, mech, independent


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(32)


# ---------------------------------------------------------------- mc_bulk


def make_mc_bulk(seed: int, size: dict, tmp: Path) -> Workload:
    r32, c16, mech, independent = _systems()
    weights = {s.name: s.bin_weights() for s in (r32, c16, mech)}
    seeds = _seeds("mc_bulk", seed)
    simulate = api("simulate_batch")
    ops: list[Op] = []
    sources: dict[str, tuple] = {}  # op name -> (source, system, shots)

    def add_sim(name, source, system, shots):
        w, s = weights[system.name], next(seeds)
        sources[name] = (source, system, shots)
        ops.append(Op(name, lambda o: simulate(source, w, system.detector, shots, s, workers=1)))

    for system in (r32, c16):
        for mu in MC_MUS:
            add_sim(f"coherent.{system.name}.mu{mu}", bf.Coherent(float(mu)), system, size["mc_shots"])
    add_sim("fock12.rapid32", bf.Fock(12), r32, size["fock12_shots"])
    add_sim("fock200.rapid32", bf.Fock(200), r32, size["fock200_shots"])
    add_sim("mechanistic.rapid32.mu100", bf.Coherent(100.0), mech, size["mech_shots"])
    sparse_seed, sparse_shots = next(seeds), size["sparse_shots"]
    build = api("build_matrix")
    ops.append(Op("sparse_mc_matrix.rapid32", lambda o: build(
        r32, 400, "mc", n_shots=sparse_shots, seed=sparse_seed, support=SPARSE_MC_SUPPORT, workers=1)))
    direct_rows = len(set(SPARSE_MC_SUPPORT) | {0, 400})
    shots = sum(n for _, _, n in sources.values()) + direct_rows * sparse_shots

    def check(out: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for name, (source, system, n) in sources.items():
            res, p = out[name], problems.setdefault(name, [])
            if res.n_shots != n or int(res.histogram.sum()) != n:
                p.append(f"histogram holds {int(res.histogram.sum())} shots, expected {n}")
            w = weights[system.name]
            if name.startswith("fock200"):
                eta = bf.effective_efficiency(system.detector, 200.0)
                q = eta * float(w.weights.sum())
                mean, se = 200 * n * q, math.sqrt(200 * n * q * (1 - q))
                got = int(res.photon_sum.sum())
                if abs(got - mean) > 6 * se:
                    p.append(f"detected photons {got} not within 6 SE ({se:.1f}) of {mean:.1f}")
            elif name.startswith("mechanistic"):
                exact = bf.click_distribution(source, independent.bin_weights(), independent.detector)
                k = np.arange(res.histogram.size)
                sd = math.sqrt(max(float(res.distribution @ k**2) - res.mean_clicks**2, 0.0))
                if res.mean_clicks > exact.mean + 6 * sd / math.sqrt(n):
                    p.append(f"mean clicks {res.mean_clicks:.4f} above independent-gate mean {exact.mean:.4f}")
            else:
                exact = bf.click_distribution(source, w, system.detector).probs
                p.extend(hist_within_tv(res.histogram, exact))
        m, p = out["sparse_mc_matrix.rapid32"], problems.setdefault("sparse_mc_matrix.rapid32", [])
        p.extend(rows_sum_to_one(m.rows))
        w = weights[r32.name]
        for mu, prov in enumerate(m.provenance):
            if mu in SPARSE_MC_SUPPORT or mu in (0, 400):
                if prov.kind != "mc" or prov.n_shots != sparse_shots:
                    p.append(f"row {mu}: provenance {prov.token()}, expected mc with {sparse_shots} shots")
                exact = bf.coherent_click_distribution(float(mu), w, r32.detector).probs
                p.extend(f"row {mu}: {e}" for e in hist_within_tv(m.rows[mu] * sparse_shots, exact))
            elif prov.kind != "interpolated":
                p.append(f"row {mu}: provenance {prov.token()}, expected interpolated")
        return problems

    return Workload("mc_bulk", ops, shots, tuple(op.name for op in ops), check)


# ---------------------------------------------------------------- calibrate


def _sparse_support(mu_max: int) -> list[int]:
    """Geometric support grid, dense at small mu where rows change fastest."""
    pts, x = {0, mu_max}, 1.0
    while x < mu_max:
        pts.add(int(round(x)))
        x *= 1.25
    return sorted(pts)


def make_calibrate(seed: int, size: dict, tmp: Path) -> Workload:
    r32, c16, _, _ = _systems()
    rng = random.Random(f"calibrate:{seed}")
    mu_max, max_obs = size["cal_mu_max"], size["max_obs"]
    centre = rng.uniform(0.4, 0.7) * max_obs
    obs = [min(max_obs, max(0, round(rng.gauss(centre, max_obs / 10)))) for _ in range(size["n_obs"])]
    n_single = rng.randint(1, max_obs)
    obs_path = tmp / "observations.txt"
    obs_path.write_text("# click counts, one per shot\n" + "\n".join(map(str, obs)) + "\n")

    csv, jsn = str(tmp / "rapid32.csv"), str(tmp / "rapid32.json")
    out_n, out_obs = str(tmp / "infer_n.json"), str(tmp / "infer_obs.json")
    matrix_args = ["matrix", "--preset", "rapid32", "--mu-max", str(mu_max), "--workers", "1", "-o"]
    support = _sparse_support(size["sparse_mu_max"])
    w32 = r32.bin_weights()
    stability, build, fock = api("stability_max_n"), api("build_matrix"), api("fock_click_distribution")
    validate, load = api("validate_interpolation"), api("load_matrix")
    ops = [
        Op("cli.matrix.csv", lambda o: run_cli(matrix_args + [csv], [csv])),
        Op("cli.matrix.json", lambda o: run_cli(matrix_args + [jsn], [jsn])),
        Op("cli.infer.n", lambda o: run_cli(["infer", "-m", csv, "--n", str(n_single), "-o", out_n], [out_n])),
        Op("cli.infer.obs", lambda o: run_cli(["infer", "-m", jsn, "--obs", str(obs_path), "-o", out_obs], [out_obs])),
        Op("stability.rapid32.400", lambda o: stability(r32, 400)),
        Op("exact.conventional16", lambda o: build(c16, size["c16_mu_max"])),
        Op("sparse_exact.rapid32", lambda o: build(r32, size["sparse_mu_max"], support=support)),
        Op("validate_interpolation", lambda o: validate(r32, o["sparse_exact.rapid32"])),
        Op("fock.rapid32.0-12", lambda o: [fock(n, w32, r32.detector) for n in range(13)]),
        Op("load.csv", lambda o: load(csv)),
        Op("load.json", lambda o: load(jsn)),
    ]

    def infer_expected(ref, observations, cutoff) -> dict:
        if len(observations) == 1:
            post = bf.posterior_single(ref, observations[0])
        else:
            post = bf.posterior_multi(ref, observations, max_admissible_n=cutoff)
        ci = bf.credible_interval(post, 0.90)
        return {
            "energy_j": bf.interval_to_energy(ci.width, 1.55e-6),
            "interval": {"hi": ci.hi, "level": ci.level, "lo": ci.lo, "mass": ci.mass, "width": ci.width},
            "log_evidence": post.log_evidence,
            "max_admissible_n": cutoff,
            "mean": post.mean,
            "mode": post.mode,
            "n_observations": len(observations),
        }

    def check(out: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {op.name: [] for op in ops}
        ref = bf.build_matrix(r32, mu_max)
        problems["cli.matrix.csv"].extend(matrix_matches_oracle(ref, w32, r32.detector))
        for name in ("cli.matrix.csv", "cli.matrix.json", "cli.infer.n", "cli.infer.obs"):
            res = out[name]
            if res.code != 0:
                problems[name].append(f"exit code {res.code}")
            if set(res.files) != set(res.paths) or not all(res.files.values()):
                problems[name].append("output file missing or empty")
        for name in ("load.csv", "load.json"):
            m = out[name]
            if not (m.mu_max == mu_max and np.array_equal(m.rows, ref.rows)):
                problems[name].append("loaded rows differ from the saved matrix")
            if m.provenance != ref.provenance or m.fingerprint != bf.fingerprint(r32):
                problems[name].append("loaded provenance or fingerprint differs from the saved matrix")
        cutoff = bf.stability_max_n(r32, mu_max)
        for name, observations in (("cli.infer.n", [n_single]), ("cli.infer.obs", obs)):
            res = out[name]
            if res.code == 0 and res.files:
                got = json.loads(next(iter(res.files.values())))
                if got != infer_expected(ref, observations, cutoff):
                    problems[name].append("infer JSON differs from the in-process result")
        if out["stability.rapid32.400"] != RAPID32_CUTOFF_400:
            problems["stability.rapid32.400"].append(
                f"cutoff {out['stability.rapid32.400']}, expected {RAPID32_CUTOFF_400}")
        problems["exact.conventional16"].extend(
            matrix_matches_oracle(out["exact.conventional16"], c16.bin_weights(), c16.detector))
        sparse = out["sparse_exact.rapid32"]
        problems["sparse_exact.rapid32"].extend(matrix_matches_oracle(sparse, w32, r32.detector))
        interp = [mu for mu, p in enumerate(sparse.provenance) if p.kind == "interpolated"]
        if [mu for mu, p in enumerate(sparse.provenance) if p.kind == "exact"] != support:
            problems["sparse_exact.rapid32"].append("exact rows are not exactly the support grid")
        tvs = out["validate_interpolation"]
        if [mu for mu, _ in tvs] != interp:
            problems["validate_interpolation"].append("reported rows are not the interpolated rows")
        for mu, tv in tvs:
            exact = bf.coherent_click_distribution(float(mu), w32, r32.detector).probs
            want = 0.5 * float(np.abs(sparse.rows[mu] - exact).sum())
            if not (0.0 <= tv <= 1.0 and abs(tv - want) <= ORACLE_TOL):
                problems["validate_interpolation"].append(f"row {mu}: TV {tv!r}, recomputed {want!r}")
        dists = out["fock.rapid32.0-12"]
        p = problems["fock.rapid32.0-12"]
        p.extend(rows_sum_to_one(np.array([d.probs for d in dists])))
        quiet = float(np.prod(1.0 - bf.per_bin_dark_probabilities(w32, r32.detector)))
        if abs(dists[0].probs[0] - quiet) > ORACLE_TOL:
            p.append(f"Fock(0) P(0 clicks) {dists[0].probs[0]!r}, expected {quiet!r}")
        if not all(a.mean < b.mean for a, b in zip(dists, dists[1:])):
            p.append("mean clicks not increasing in photon number")
        return problems

    return Workload("calibrate", ops, len(obs) + 1, ("cli.infer.n", "cli.infer.obs"), check)


# ---------------------------------------------------------------- convergence


def _error_factor(p: float) -> float:
    return math.sqrt(p) / ((1.0 - p) * math.log(1.0 / (1.0 - p)))


def make_convergence(seed: int, size: dict, tmp: Path) -> Workload:
    r32, _, _, _ = _systems()
    seeds = _seeds("convergence", seed)
    curve_seed, base_seed = next(seeds), next(seeds)
    trials, shots, mu = size["trials"], CONVERGENCE_SHOTS, CONVERGENCE_MU
    eff = r32.detector.efficiency
    build, stability, curve = api("build_matrix"), api("stability_max_n"), api("relative_error_curve")
    ops = [
        Op("matrix.exact.400", lambda o: build(r32, CONVERGENCE_MU_MAX)),
        Op("stability.400", lambda o: stability(r32, CONVERGENCE_MU_MAX)),
        Op("curve", lambda o: curve(
            r32, o["matrix.exact.400"], mu, shots, trials, curve_seed,
            max_admissible_n=o["stability.400"], workers=1)),
        Op("baseline.curve", lambda o: api("baseline_error_curve")(mu, shots)),
        Op("baseline.simulate", lambda o: api("simulate_baseline")(mu, eff, shots, trials, base_seed)),
        Op("baseline.shots_to", lambda o: api("shots_to_relative_error")(0.1)),
    ]

    def check(out: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {op.name: [] for op in ops}
        m = out["matrix.exact.400"]
        problems["matrix.exact.400"].extend(matrix_matches_oracle(m, r32.bin_weights(), r32.detector))
        post = bf.posterior_single(m, 1)
        ci = bf.credible_interval(post, 0.90)
        if (post.mode, ci.lo, ci.hi) != (8, 1, 33):
            problems["matrix.exact.400"].append(
                f"n=1 posterior mode {post.mode} interval [{ci.lo}, {ci.hi}], expected 8 [1, 33]")
        if out["stability.400"] != RAPID32_CUTOFF_400:
            problems["stability.400"].append(f"cutoff {out['stability.400']}, expected {RAPID32_CUTOFF_400}")
        c, p = out["curve"], problems["curve"]
        if c.rel_err.shape != (trials, shots) or not (np.isfinite(c.rel_err).all() and (c.rel_err > 0).all()):
            p.append("rel_err has the wrong shape or non-finite or nonpositive entries")
        else:
            reach = c.shots_to(0.1)
            if not 105 <= reach <= 195:
                p.append(f"shots_to(0.1) = {reach}, outside [105, 195]")
        k = np.arange(1, shots + 1)
        scale = 2 * bf.Z_90 * _error_factor(0.5)
        if not np.allclose(out["baseline.curve"] * np.sqrt(k), scale, rtol=1e-12, atol=0):
            problems["baseline.curve"].append("analytic curve is not 2 z f(0.5) / sqrt(k)")
        sim = out["baseline.simulate"]
        last = sim[:, -1] if sim.shape == (trials, shots) else np.array([np.nan])
        if not np.isfinite(last).all() or abs(np.median(last) * math.sqrt(shots) / scale - 1) > 0.15:
            problems["baseline.simulate"].append("simulated baseline width at the last shot is off the analytic curve")
        if out["baseline.shots_to"] != math.ceil((scale / 0.1) ** 2):
            problems["baseline.shots_to"].append(f"shots_to_relative_error(0.1) = {out['baseline.shots_to']}")
        return problems

    return Workload("convergence", ops, trials * shots, ("curve",), check)


WORKLOADS = {
    "mc_bulk": make_mc_bulk,
    "calibrate": make_calibrate,
    "convergence": make_convergence,
}
