"""One workload in one fresh process; started by run.py, not by hand.

It times its own ``import binflux`` (one set-up sample), builds the
workload's inputs from the seed, then runs timed passes until the time
budget is spent and checks the outputs of the first. With --trace 1 it
alternates untraced and traced passes and reports per-layer metrics. The
last stdout line is one JSON object for run.py.
"""

import time

_t0 = time.perf_counter()
import binflux  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import SCALES, WORKLOADS, CliOutput, digest  # noqa: E402


# The probe: a fixed piece of work that does not touch binflux, run just
# before every operation. On a shared host the CPU's speed drifts by up to
# 1.9x over seconds to minutes (process CPU time drifts with wall time, so
# it is not stolen time), and a time measured in one 30 s run mostly shows
# the neighbours' load. Dividing by the probe's time in the same run
# removes most of that: over 6 and 5 minutes of back-to-back passes on a
# shared 2-core x86_64 VM, the quartile spread of 30 s windows' mean pass
# time fell from 0.16 to 0.10 on calibrate and from 0.11 to 0.05 on
# convergence. PROBE_NOMINAL_S, the probe's median time on that VM, turns
# the ratio back into seconds; run.py scales setup_s the same way.
PROBE_NOMINAL_S = 0.0066
_PROBE_DATA = np.random.default_rng(0).random(200_000)


def probe_ns() -> int:
    t = time.perf_counter_ns()
    np.sort(_PROBE_DATA)
    s = 0
    for i in range(50_000):
        s += i * i
    return time.perf_counter_ns() - t


def run_pass(workload):
    """Run every operation once, each after a probe.

    Returns (outputs, errors, wall ns without the probes, ns per operation,
    mean ns of one probe).
    """
    outputs, errors, op_ns = {}, {}, {}
    clock = time.perf_counter_ns
    probe_total = 0
    start = clock()
    for op in workload.ops:
        probe_total += probe_ns()
        t = clock()
        try:
            outputs[op.name] = op.run(outputs)
        except Exception as exc:  # an operation that raises counts as failed
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        op_ns[op.name] = clock() - t
    return outputs, errors, clock() - start - probe_total, op_ns, probe_total / len(workload.ops)


def digests_of(outputs: dict) -> dict[str, str]:
    for out in outputs.values():
        if isinstance(out, CliOutput):
            out.materialize()
    return {name: digest(out) for name, out in outputs.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SCALES), required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale], Path(args.tmp))
    names = [op.name for op in workload.ops]

    # The first pass is timed like the others; its outputs are the ones
    # checked, and every later pass must reproduce their digests.
    first, reference = {}, None
    passes: list[dict] = []  # per pass: op name -> why it failed
    untraced: list[tuple[int, dict]] = []  # (wall ns, ns per operation)
    probes: list[float] = []  # mean probe ns per untraced pass
    traced: list[int] = []
    traced_probes: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            with Tracer() as tracer:
                outputs, errors, wall, op_ns, probe = run_pass(workload)
            layers.append(layer_metrics(tracer.spans, wall, sum(op_ns.values())))
            traced.append(wall)
            traced_probes.append(probe)
        else:
            outputs, errors, wall, op_ns, probe = run_pass(workload)
            untraced.append((wall, op_ns))
            probes.append(probe)
        digests = digests_of(outputs)
        if reference is None:
            first, reference = outputs, digests
        for name, d in digests.items():
            if name not in errors and d != reference.get(name):
                errors[name] = "output differs from the checked pass"
        passes.append(errors)
        del outputs
        elapsed = time.perf_counter() - start
        longest = max([w for w, _ in untraced] + traced) * 1e-9
        if (not args.trace or traced) and elapsed + longest > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        problems = {k: v for k, v in workload.check(first).items() if v}
    except Exception as exc:  # a crash in the checks fails every operation
        problems = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in names}
    for name, why in passes[0].items():
        problems.setdefault(name, []).append(why)
    failed = sum(1 for errs in passes for name in names if name in errs or name in problems)

    # Untraced times are reported at the machine speed where the probe
    # takes PROBE_NOMINAL_S.
    speed_scale = PROBE_NOMINAL_S / (statistics.fmean(probes) * 1e-9)
    raw_wall_s = statistics.fmean(w for w, _ in untraced) * 1e-9
    if args.trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        # Each pass in units of its own probe time, so that the machine's
        # drift between passes does not pass for tracing cost.
        untraced_wall = statistics.median(w / p for (w, _), p in zip(untraced, probes))
        traced_wall = statistics.median(w / p for w, p in zip(traced, traced_probes))
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    else:
        counted_s = statistics.fmean(sum(ops[n] for n in workload.counted) for _, ops in untraced) * 1e-9
        metrics = {
            "wall_s": raw_wall_s * speed_scale,
            "shots_per_s": workload.shots_per_pass / (counted_s * speed_scale),
            "peak_rss_mb": peak_rss_mb,
        }
    run_digest = hashlib.sha256("".join(f"{n}={reference.get(n)};" for n in names).encode()).hexdigest()
    print(json.dumps({
        "import_s": IMPORT_S,
        "metrics": metrics,
        "attempted": len(names) * len(passes),
        "failed": failed,
        "problems": problems,
        "digest": run_digest,
        "op_digests": reference,
        "timed_passes": len(passes),
        "raw_wall_s": raw_wall_s,
        "probe_s": statistics.fmean(probes) * 1e-9,
        "speed_scale": speed_scale,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
