"""Command-line front end.

Subcommands: presets, simulate, matrix, infer, compare, sweep. Every file
output gets a sibling <name>.manifest.json recording every option as
parsed (except --preset/--config, which the recorded system replaces), the
system fingerprint, and library versions together with the Monte Carlo
stream version (versions.kernel; no timestamps, so a rerun of the same
command yields byte-identical files).

Exit codes: 0 success, 2 usage, 3 configuration or file-format problem or
a missing or unreadable file, 4 computation unsupported by the model,
5 degenerate evidence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import baseline_error_curve, shots_to_relative_error
from .config import SystemConfig, fingerprint, load_system, system_to_dict
from .errors import (
    ConfigurationError,
    DegenerateEvidenceError,
    MatrixFormatError,
    ModelUnsupportedError,
)
from .exact_oracle import coherent_click_rows
from .inference import (
    _click_count,
    _stability_build,
    credible_interval,
    interval_to_energy,
    posterior_multi,
    posterior_single,
    relative_error_curve,
    stability_max_n,
)
from .mc_engine import MC_KERNEL, Coherent, Fock, describe_source, simulate_batch
from .multiplexer import validate_timing
from .presets import PRESET_NAMES, get_preset
from .response_matrix import build_matrix, load_matrix, save_matrix


class UsageError(Exception):
    pass


def _resolve_system(args: argparse.Namespace) -> SystemConfig:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise UsageError("give either --preset or --config, not both")
    if getattr(args, "preset", None):
        return get_preset(args.preset)
    if getattr(args, "config", None):
        return load_system(args.config)
    raise UsageError("one of --preset or --config is required")


def _int_list(text: str) -> list[int] | None:
    """argparse type for comma-separated integers; an empty list means the option is absent."""
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""] or None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


# Namespace entries that are not parameters: the subcommand and its handler,
# and the system source, which "system" and "fingerprint" record instead.
_NOT_PARAMETERS = ("command", "func", "preset", "config")
_fmt = "{:.17g}".format  # every float of a CSV output, at 17 significant digits


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_manifest(out: Path, args: argparse.Namespace, system: SystemConfig) -> None:
    doc = {
        "tool": f"binflux {__version__}",
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "system": system_to_dict(system),
        "fingerprint": fingerprint(system),
        "versions": {
            "binflux": __version__,
            "kernel": MC_KERNEL,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    Path(str(out) + ".manifest.json").write_text(_json_text(doc))


def _write_lines(out: Path, header: str, rows) -> None:
    out.write_text("\n".join([header, *rows]) + "\n")


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help=f"built-in configuration ({', '.join(PRESET_NAMES)})")
    p.add_argument("--config", help="path to a system configuration JSON file")


def _cmd_presets(args: argparse.Namespace) -> int:
    if args.json:
        doc = {name: system_to_dict(get_preset(name)) for name in PRESET_NAMES}
        sys.stdout.write(_json_text(doc))
        return 0
    for name in PRESET_NAMES:
        system = get_preset(name)
        weights = system.bin_weights()
        report = validate_timing(weights, system.detector.deadtime, system.guard)
        print(
            f"{name}: {weights.num_bins} bins, efficiency {system.detector.efficiency}, "
            f"train {report.train_length:.4g} s, max rate {report.max_rep_rate:.4g} Hz"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = _resolve_system(args)
    if (args.mu is None) == (args.fock is None):
        raise UsageError("give exactly one of --mu or --fock")
    source = Coherent(args.mu) if args.mu is not None else Fock(args.fock)
    weights = system.bin_weights()
    batch = simulate_batch(
        source, weights, system.detector, args.shots, args.seed, workers=args.workers
    )
    out = Path(args.output)
    if args.format == "csv":
        rows = (f"{n},{c},{_fmt(c / batch.n_shots)}" for n, c in enumerate(batch.histogram))
        _write_lines(out, "n,count,probability", rows)
    else:
        doc = {
            "histogram": batch.histogram.tolist(),
            "n_shots": batch.n_shots,
            "mean_clicks": batch.mean_clicks,
            "source": describe_source(source),
        }
        out.write_text(_json_text(doc))
    _write_manifest(out, args, system)
    print(f"wrote {out}: {batch.n_shots} shots, mean clicks {batch.mean_clicks:.4f}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    system = _resolve_system(args)
    if args.method == "mc" and args.seed is None:
        raise UsageError("--seed is required when --method mc")
    matrix = build_matrix(
        system,
        args.mu_max,
        args.method,
        n_shots=args.shots,
        seed=args.seed,
        support=args.support,
        workers=args.workers,
    )
    out = Path(args.output)
    save_matrix(matrix, out)
    _write_manifest(out, args, system)
    print(f"wrote {out}: {matrix.mu_max + 1} rows x {matrix.num_bins + 1} counts, method {matrix.method}")
    return 0


def _read_observations(path: str) -> list[int]:
    values: list[int] = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(int(body))
        except ValueError:
            raise UsageError(f"{path}:{i}: expected an integer click count, got {body!r}") from None
    if not values:
        raise UsageError(f"{path}: no observations found")
    return values


def _cmd_infer(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    if args.preset or args.config:
        system = _resolve_system(args)
        fp = fingerprint(system)
        if fp != matrix.fingerprint and not args.force:
            raise ConfigurationError(
                f"matrix fingerprint {matrix.fingerprint[:12]}... does not match the supplied "
                f"configuration ({fp[:12]}...); pass --force to use it anyway"
            )

    if (args.n is None) == (args.obs is None):
        raise UsageError("give exactly one of --n or --obs")
    raw = [args.n] if args.n is not None else _read_observations(args.obs)
    observations = [_click_count(n, matrix.num_bins) for n in raw]

    if args.max_n is not None:
        if args.max_n < 0:
            raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
        cutoff: int | None = args.max_n
    elif args.no_stability:
        cutoff = None
    else:
        cutoff = stability_max_n(matrix.system, matrix.mu_max, args.tolerance)
    if cutoff is not None:
        worst = max(observations)
        if worst > cutoff:
            raise ModelUnsupportedError(
                f"click count {worst} exceeds the stability cutoff {cutoff} for mu_max="
                f"{matrix.mu_max}: its posterior would change materially on a larger mu grid, "
                "so this count should be discarded rather than inverted"
            )

    if len(observations) == 1:
        posterior = posterior_single(matrix, observations[0])
    else:
        posterior = posterior_multi(matrix, observations, max_admissible_n=cutoff)
    interval = credible_interval(posterior, args.level)
    result = {
        "energy_j": interval_to_energy(interval.width, args.wavelength),
        "interval": {
            "hi": interval.hi,
            "level": interval.level,
            "lo": interval.lo,
            "mass": interval.mass,
            "width": interval.width,
        },
        "log_evidence": posterior.log_evidence,
        "max_admissible_n": cutoff,
        "mean": posterior.mean,
        "mode": posterior.mode,
        "n_observations": len(observations),
    }
    text = _json_text(result)
    if args.output:
        Path(args.output).write_text(text)
        _write_manifest(Path(args.output), args, matrix.system)
    else:
        sys.stdout.write(text)
    if args.posterior:
        rows = (f"{mu},{_fmt(p)}" for mu, p in enumerate(posterior.probs))
        _write_lines(Path(args.posterior), "mu,probability", rows)
        _write_manifest(Path(args.posterior), args, matrix.system)
    return 0


def _convergence(args: argparse.Namespace, system: SystemConfig, max_shots: int):
    """Exact matrix, stability cutoff and relative-error curve shared by compare and sweep.

    One exact build on [0, 2 * mu_max] gives the cutoff, and its first
    mu_max + 1 rows are the [0, mu_max] matrix the curve inverts with.
    """
    wide, cutoff = _stability_build(system, args.mu_max, args.tolerance)
    head = slice(0, args.mu_max + 1)
    matrix = dataclasses.replace(wide, rows=wide.rows[head], provenance=wide.provenance[head])
    return relative_error_curve(
        system,
        matrix,
        args.mu,
        max_shots,
        args.trials,
        args.seed,
        level=args.level,
        max_admissible_n=cutoff,
        workers=args.workers,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    system = _resolve_system(args)
    # Checks --target before the curve is computed and before any file is written.
    base_shots = shots_to_relative_error(args.target, convention=args.baseline_convention)
    curve = _convergence(args, system, args.max_shots)
    mux_shots = curve.shots_to(args.target)
    base = baseline_error_curve(args.mu, args.max_shots, convention=args.baseline_convention)
    med = curve.median()
    out = Path(args.output)
    rows = (f"{i + 1},{_fmt(med[i])},{_fmt(base[i])}" for i in range(args.max_shots))
    _write_lines(out, "shots,rel_err_multiplexed,rel_err_single_pixel", rows)
    _write_manifest(out, args, system)
    head = f"wrote {out}: to reach {args.target:.0%} relative width at mu={args.mu}: "
    single = f"single-pixel {base_shots} shots ({args.baseline_convention} width)"
    if np.isinf(mux_shots):
        print(f"{head}multiplexed (median) not reached within --max-shots {args.max_shots}, {single}")
    else:
        print(f"{head}multiplexed {mux_shots:.0f} shots (median), {single}, advantage x{base_shots / mux_shots:.1f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = args.values  # parsed by _int_list: None when the list is empty
    if not values:
        raise UsageError("--values must name at least one integer")
    if args.over == "shots":
        if args.mu is None:
            raise UsageError("--mu is required with --over shots")
        if min(values) < 1:
            raise UsageError(f"--values: shot counts must be >= 1, got {min(values)}")
    system = _resolve_system(args)
    weights = system.bin_weights()
    out = Path(args.output)
    if args.over == "mu":
        exact = coherent_click_rows(values, weights, system.detector)
        lines = []
        for mu, probs in zip(values, exact):
            batch = simulate_batch(
                Coherent(float(mu)), weights, system.detector, args.shots, args.seed, workers=args.workers
            )
            for n, c in enumerate(batch.histogram):
                lines.append(f"{mu},{n},{c},{_fmt(c / batch.n_shots)},{_fmt(probs[n])}")
        _write_lines(out, "mu,n,count,probability,probability_exact", lines)
    else:
        curve = _convergence(args, system, max(values))
        med, q25, q75 = curve.median(), curve.quantile(0.25), curve.quantile(0.75)
        rows = (
            f"{k},{_fmt(med[k - 1])},{_fmt(q25[k - 1])},{_fmt(q75[k - 1])}"
            for k in sorted(set(values))
        )
        _write_lines(out, "shots,median_rel_err,q25_rel_err,q75_rel_err", rows)
    _write_manifest(out, args, system)
    print(f"wrote {out}: sweep over {args.over} at {len(set(values))} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binflux",
        description="Simulate time-multiplexed photon counting and invert click counts into pulse energies.",
    )
    parser.add_argument("--version", action="version", version=f"binflux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list built-in system configurations")
    p.add_argument("--json", action="store_true", help="dump full configurations as JSON")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("simulate", help="Monte Carlo click histogram for one source")
    _add_system_args(p)
    p.add_argument("--mu", type=float, help="coherent source mean photon number")
    p.add_argument("--fock", type=int, help="exact photon number instead of --mu")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="reproducibility seed (no default)")
    p.add_argument("--workers", type=int, default=None, help="thread cap (default: BINFLUX_THREADS or 1)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("matrix", help="build and save a response matrix")
    _add_system_args(p)
    p.add_argument("--mu-max", type=int, required=True)
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--shots", type=int, default=1_000_000, help="shots per row for --method mc")
    p.add_argument("--seed", type=int, default=None, help="required for --method mc")
    p.add_argument(
        "--support", type=_int_list, default=None, help="comma-separated mu values to compute directly"
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--output", required=True, help=".csv or .json")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("infer", help="posterior pulse energy from click counts")
    _add_system_args(p)
    p.add_argument("-m", "--matrix", required=True, help="matrix file from the matrix subcommand")
    p.add_argument("--n", type=int, default=None, help="single observed click count")
    p.add_argument("--obs", default=None, help="file with one click count per line")
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--tolerance", type=float, default=0.01, help="stability tolerance")
    p.add_argument("--max-n", type=int, default=None, help="override the stability cutoff")
    p.add_argument("--no-stability", action="store_true", help="skip the stability check")
    p.add_argument("--wavelength", type=float, default=1.55e-6)
    p.add_argument("--force", action="store_true", help="accept a fingerprint mismatch")
    p.add_argument("-o", "--output", default=None, help="write the result JSON here instead of stdout")
    p.add_argument("--posterior", default=None, help="also write the posterior as CSV")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("compare", help="multiplexed convergence vs the single-pixel baseline")
    _add_system_args(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--max-shots", type=int, default=400)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mu-max", type=int, default=400)
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--target", type=float, default=0.10, help="relative width target for the summary")
    p.add_argument("--baseline-convention", choices=("full", "half"), default="full")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="aggregate statistics over a mu or shot-count grid")
    _add_system_args(p)
    p.add_argument("--over", choices=("mu", "shots"), required=True)
    p.add_argument("--values", type=_int_list, required=True, help="comma-separated grid values")
    p.add_argument("--mu", type=float, default=None, help="true mu for --over shots")
    p.add_argument("--shots", type=int, default=100_000, help="shots per point for --over mu")
    p.add_argument("--trials", type=int, default=50, help="trials for --over shots")
    p.add_argument("--mu-max", type=int, default=400)
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"binflux: usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"binflux: configuration error: {exc}", file=sys.stderr)
        return 3
    except MatrixFormatError as exc:
        print(f"binflux: matrix file error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"binflux: file error: {exc}", file=sys.stderr)
        return 3
    except ModelUnsupportedError as exc:
        print(f"binflux: unsupported by this model: {exc}", file=sys.stderr)
        return 4
    except DegenerateEvidenceError as exc:
        print(f"binflux: degenerate evidence: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"binflux: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
