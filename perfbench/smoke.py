"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced on the same seed and
checks that every BENCHMARK.json metric appears, that no operation failed,
and that both runs produced the same output digest (so tracing does not
change results). It then checks that the mc_bulk checker rejects a
deliberately perturbed histogram, and that run.py fails without printing a
result where there is no program to measure. Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp" / "smoke"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_workloads(spec: dict, errors: list[str]) -> None:
    for w in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = run("--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
            if p.returncode != 0:
                errors.append(f"{w} trace {trace}: exit {p.returncode}\n{p.stderr}")
                continue
            *_, info_line, result_line = p.stdout.splitlines()
            info, result = json.loads(info_line)["info"], json.loads(result_line)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{w} trace {trace}: result keys {sorted(result)}")
            names = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != names:
                errors.append(f"{w} trace {trace}: metrics differ by {sorted(set(result['metrics']) ^ names)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                errors.append(f"{w} trace {trace}: {result['failed']} failed: {info['problems']}")
            if trace == 0 and not all(v["value"] > 0 for v in result["metrics"].values()):
                errors.append(f"{w}: an end-to-end metric is not positive")
            digests.add(info["digest"])
        if len(digests) != 1:
            errors.append(f"{w}: digests differ between the untraced and the traced run")


def check_perturbed_histogram(errors: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    from worker import run_pass
    from workloads import SCALES, make_mc_bulk

    workload = make_mc_bulk(7, SCALES["tiny"], SCRATCH)
    outputs, raised, *_ = run_pass(workload)
    name = "coherent.rapid32.mu100"
    if raised or any(workload.check(outputs).values()):
        errors.append(f"unperturbed mc_bulk outputs fail their checks: {raised}")
        return
    # Every shot two clicks higher: a TV of about 0.3 from the exact law.
    outputs[name].histogram = np.roll(outputs[name].histogram, 2)
    if not workload.check(outputs).get(name):
        errors.append("the checker accepted a perturbed histogram")


def check_bare_directory(errors: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = run("--workload", "mc_bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    if p.returncode == 0 or p.stdout.strip():
        errors.append("run.py succeeded or printed a result without a program to measure")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_workloads(spec, errors)
        check_perturbed_histogram(errors)
        check_bare_directory(errors)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
