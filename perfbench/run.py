"""binflux benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_bulk --seed 1 --seconds 20 --trace 0

It runs the workload in its own fresh process (perfbench/worker.py) for
--seconds and checks the outputs, and times set-up (``import binflux`` in
fresh interpreters) before and after. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The line
before it carries the output digest, the problems found and machine facts.
--out appends the full record to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("mc_bulk", "calibrate", "convergence")
# Fresh interpreters timing `import binflux`, taken before and again after
# the workload process so that they span the same stretch of time as its
# speed probes; the workload process adds one more sample.
SETUP_SAMPLES = {"full": 2, "tiny": 1}
TIMEOUT_S = 170

IMPORT_PROBE = "import time; t = time.perf_counter(); import binflux; print(time.perf_counter() - t)"
# The same import with scipy.stats taken first (after numpy and scipy), so
# its share can be split out: prints total and scipy.stats seconds.
SPLIT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, scipy; s = time.perf_counter(); "
    "import scipy.stats; u = time.perf_counter(); import binflux; print(time.perf_counter() - t, u - s)"
)


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BINFLUX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_sample(env: dict, split: bool) -> list[float]:
    """[seconds to import binflux] or, with split, [total, scipy.stats share]."""
    cmd = [sys.executable, "-c", SPLIT_PROBE if split else IMPORT_PROBE]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
    return [float(v) for v in proc.stdout.split()]


def meta(versions: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh).get("project", {}).get("dependencies", [])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **versions,
        "src_lines": src_lines,
        "runtime_deps": len(deps),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SETUP_SAMPLES), default="full", help="tiny is for the smoke test")
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "binflux" / "__init__.py").is_file():
        return fail(f"no src/binflux under {ROOT}; run from the repository root", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    tmp = Path(".perfbench_tmp") / args.workload
    try:
        if not Path(importlib.util.cache_from_source(str(ROOT / "src" / "binflux" / "__init__.py"))).exists():
            import_sample(env, split=False)  # fills the bytecode cache; not timed
        samples = [import_sample(env, split=bool(args.trace)) for _ in range(SETUP_SAMPLES[args.scale])]
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--tmp", str(tmp)],
            env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        samples += [import_sample(env, split=bool(args.trace)) for _ in range(SETUP_SAMPLES[args.scale])]
    except subprocess.CalledProcessError as exc:
        return fail(f"import probe failed:\n{exc.stderr}", 1)
    except subprocess.TimeoutExpired as exc:
        return fail(f"{exc.cmd[1]} timed out after {exc.timeout} s", 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    if proc.returncode != 0:
        return fail(f"workload process exited with {proc.returncode}:\n{proc.stderr}", 1)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(rec["metrics"])
    if args.trace:
        metrics["setup.import_s"] = statistics.median(s[0] for s in samples)
        metrics["setup.scipy_stats_import_s"] = statistics.median(s[1] for s in samples)
    else:
        # At the machine speed wall_s is scaled to: over 30 runs the median
        # import time and the run's mean probe time correlated at 0.69.
        import_s = statistics.median([s[0] for s in samples] + [rec["import_s"]])
        metrics["setup_s"] = import_s * rec["speed_scale"]
    if set(metrics) != set(wanted):
        return fail(f"metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json", 1)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "digest": rec["digest"],
        "op_digests": rec["op_digests"],
        "timed_passes": rec["timed_passes"],
        "raw_wall_s": rec["raw_wall_s"],
        "probe_s": rec["probe_s"],
        "problems": rec["problems"],
        "meta": meta(rec["versions"]),
    }
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**info, **result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
