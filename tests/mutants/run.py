"""Mutation check: every one-line mutant of src/binflux must fail the tests named for it.

Each mutant changes one line of one module. For each, the runner copies
src/ to a temporary directory, applies the mutant there and runs only the
tests named for it against the copy, so the working tree is never
touched. A mutant that passes its tests survives, and the run exits 1,
unless the mutant is listed as equivalent together with the reason no
test can tell it from the original. Before any mutant, the named tests
must pass on an unmutated copy, or no kill would mean anything.

    python tests/mutants/run.py

pytest does not collect this file: its name does not match test_*.py.
Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 34 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/binflux
    original: str  # text that occurs exactly once in the module
    mutated: str
    tests: tuple[str, ...]  # test files or test ids under tests/
    equivalent: str | None = None  # why no test can tell it from the original


MUTANTS = (
    Mutant(
        "rng.lane_threshold_floor",
        "_rng.py",
        "return np.ceil(np.ldexp(",
        "return np.floor(np.ldexp(",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "rng.lane_bits_shift",
        "_rng.py",
        "block >>= 64 - _LANE_BITS",
        "block >>= 63 - _LANE_BITS",
        ("test_mc_stream.py",),
    ),
    Mutant(
        "mc_engine.fock_dark_lane_at_threshold",
        "mc_engine.py",
        "clicks = lanes[:, n : n + b] < self.dark",
        "clicks = lanes[:, n : n + b] <= self.dark",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "mc_engine.undershoot_ignores_the_previous_click",
        "mc_engine.py",
        "clicks[j] &= ~(clicks[prev] & miss[j])",
        "clicks[j] &= ~miss[j]",
        ("test_mc2_kernel.py",),
    ),
    Mutant(
        "exact_oracle.poisson_binomial_drops_a_click",
        "exact_oracle.py",
        "dist[1 : j + 2] += fired",
        "dist[1 : j + 1] += fired[:-1]",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.undershoot_in_time_order_across_detectors",
        "exact_oracle.py",
        'order = np.argsort(weights.detector_of_bin, kind="stable")',
        "order = np.arange(weights.num_bins)",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.gate_step_never_misses",
        "exact_oracle.py",
        "clicked[1:] = fired_silent + (1.0 - miss) * fired_clicked",
        "clicked[1:] = fired_silent + fired_clicked",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.transfer_shares_swapped",
        "exact_oracle.py",
        "np.convolve(t[r - 1, :r], (s, 1.0 - s))",
        "np.convolve(t[r - 1, :r], (1.0 - s, s))",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.transfer_drops_the_shift_term",
        "exact_oracle.py",
        "np.convolve(t[r - 1, :r], (s, 1.0 - s))",
        "np.convolve(t[r - 1, :r], (s, 0.0))",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "exact_oracle.fock_gate_clicks_without_a_dark_count",
        "exact_oracle.py",
        "np.fill_diagonal(wants, none_land * dark_j)",
        "np.fill_diagonal(wants, none_land)",
        ("test_exact_oracle.py",),
    ),
    Mutant(
        "inference.click_count_accepts_bool",
        "inference.py",
        "if isinstance(n, bool) or not isinstance(n, (int, np.integer))",
        "if not isinstance(n, (int, np.integer))",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.click_count_accepts_float",
        "inference.py",
        "not isinstance(n, (int, np.integer))",
        "not isinstance(n, (int, float, np.integer))",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.posterior_single_drops_the_flat_prior",
        "inference.py",
        "log_evidence=math.log(total) - math.log(col.size)",
        "log_evidence=math.log(total)",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.posterior_multi_drops_the_flat_prior",
        "inference.py",
        "log_evidence=float(top + math.log(total) - math.log(post.size))",
        "log_evidence=float(top + math.log(total))",
        ("test_inference.py",),
    ),
    Mutant(
        "inference.hpd_stops_only_above_level",
        "inference.py",
        "done = (mass >= level) |",
        "done = (mass > level) |",
        # Fails at once; under -x the file's first failure is a Hypothesis test that shrinks for up to 90 s.
        ("test_batched.py::test_running_mass_hpd_matches_scalar_loop_on_wide_rows",),
    ),
    Mutant(
        "inference.stability_accepts_the_tolerance",
        "inference.py",
        "~(_stability_tv(wide.rows, mu_max) < tolerance)",
        "~(_stability_tv(wide.rows, mu_max) <= tolerance)",
        ("test_inference.py", "test_batched.py"),
    ),
    Mutant(
        "inference.curve_rejects_the_cutoff_count",
        "inference.py",
        "batch.click_totals[batch.click_totals <= cutoff]",
        "batch.click_totals[batch.click_totals < cutoff]",
        ("test_inference.py", "test_inference_stream.py"),
    ),
    Mutant(
        "response_matrix.interpolation_fraction",
        "response_matrix.py",
        "frac = (np.arange(lo + 1, hi) - lo) / (hi - lo)",
        "frac = (np.arange(lo + 1, hi) - lo) / (hi - lo + 1)",
        ("test_response_matrix.py",),
    ),
    Mutant(
        "response_matrix.row_sum_tolerance",
        "response_matrix.py",
        "_ROW_SUM_TOL = 1e-9",
        "_ROW_SUM_TOL = 1e-3",
        ("test_response_matrix.py",),
    ),
    Mutant(
        "baseline.simulated_margin_binomial_error",
        "baseline.py",
        "z * np.sqrt(n_det) / k",
        "z * np.sqrt(n_det * (1.0 - p_hat)) / k",
        ("test_baseline.py",),
    ),
    Mutant(
        "baseline.shots_rounded_down",
        "baseline.py",
        "return math.ceil((_z_factor(convention)",
        "return math.floor((_z_factor(convention)",
        ("test_baseline.py",),
    ),
    Mutant(
        "cli.energy_from_width_minus_one",
        "cli.py",
        '"energy_j": interval_to_energy(interval.width, args.wavelength)',
        '"energy_j": interval_to_energy(interval.width - 1, args.wavelength)',
        ("test_cli.py",),
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import binflux; print(binflux.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"binflux imports from {where}, not from the copy under {src}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "binflux" / mutant.module
    text = path.read_text()
    if text.count(mutant.original) != 1:
        raise SystemExit(
            f"{mutant.name}: {mutant.original!r} occurs {text.count(mutant.original)} times in "
            f"src/binflux/{mutant.module}, expected once; update the catalogue"
        )
    path.write_text(text.replace(mutant.original, mutant.mutated))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="binflux-mutants-") as tmp:
        files = sorted({t for m in MUTANTS for t in m.tests})
        clean = _pytest(_copy_src(Path(tmp) / "clean"), files)
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:], sep="\n")
            print(f"the named tests fail on the unmutated source (pytest exit {clean.returncode})")
            return 2
        failures = []
        for i, mutant in enumerate(MUTANTS):
            start = time.perf_counter()
            src = _copy_src(Path(tmp) / f"m{i}")
            _apply(mutant, src)
            proc = _pytest(src, mutant.tests)
            if proc.returncode not in (0, 1):
                print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
                raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}, neither pass nor fail")
            survived = proc.returncode == 0
            verdict = "killed" if not survived else "equivalent" if mutant.equivalent else "SURVIVED"
            print(f"{verdict:10s} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if survived and not mutant.equivalent:
                failures.append(mutant.name)
            if not survived and mutant.equivalent:
                failures.append(f"{mutant.name} (listed as equivalent, but a test kills it)")
    killed = len(MUTANTS) - len(failures)
    print(f"{killed} of {len(MUTANTS)} mutants killed or equivalent")
    for name in failures:
        print(f"not killed as listed: {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
