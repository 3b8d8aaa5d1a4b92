"""Command-line front end.

Subcommands: presets, simulate, matrix, infer, compare, sweep. Every file
output gets a sibling <name>.manifest.json recording every option as
parsed (except --preset/--config, which the recorded system replaces), the
system fingerprint, and library versions together with the Monte Carlo
stream version (versions.kernel; no timestamps, so a rerun of the same
command yields byte-identical files).

Exit codes, from the table _EXITS: 0 success; 2 a bad option or argument
value, or an observations file that is not UTF-8 or holds a line that is
not an integer; 3 a bad configuration, a malformed or non-UTF-8 config or
matrix file, or a file that cannot be read or written; 4 a computation
the model does not support; 5 degenerate evidence. Each error message
names the option, field or file at fault.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import asdict
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
    _integer,
)
from .exact_oracle import coherent_click_rows
from .inference import (
    _stability_build,
    credible_interval,
    interval_to_energy,
    posterior_multi,
    relative_error_curve,
    stability_max_n,
)
from .mc_engine import MC_KERNEL, Coherent, Fock, describe_source, simulate_batch
from .multiplexer import validate_timing
from .presets import PRESET_NAMES, get_preset
from .response_matrix import build_matrix, load_matrix, mc_rows, save_matrix


def _resolve_system(args: argparse.Namespace) -> SystemConfig:
    return get_preset(args.preset) if args.preset is not None else load_system(args.config)


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


def _add_system_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--preset", help=f"built-in configuration ({', '.join(PRESET_NAMES)})")
    group.add_argument("--config", help="path to a system configuration JSON file")


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
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values: list[int] = []
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(int(body))
        except ValueError:
            raise ValueError(f"{path}:{i}: expected an integer click count, got {body!r}") from None
    if not values:
        raise ValueError(f"{path}: no observations found")
    return values


def _cmd_infer(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    if args.preset is not None or args.config is not None:
        system = _resolve_system(args)
        fp = fingerprint(system)
        if fp != matrix.fingerprint and not args.force:
            raise ConfigurationError(
                f"matrix fingerprint {matrix.fingerprint[:12]}... does not match the supplied "
                f"configuration ({fp[:12]}...); pass --force to use it anyway"
            )

    observations = [args.n] if args.n is not None else _read_observations(args.obs)
    if args.max_n is not None:
        cutoff: int | None = _integer(args.max_n, "--max-n")
    elif args.no_stability:
        cutoff = None
    else:
        cutoff = stability_max_n(matrix.system, matrix.mu_max, args.tolerance)
    posterior = posterior_multi(matrix, observations, max_admissible_n=cutoff)
    interval = credible_interval(posterior, args.level)
    result = {
        "energy_j": interval_to_energy(interval.width, args.wavelength),
        "interval": {**asdict(interval), "width": interval.width},
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
    """Relative-error curve shared by compare and sweep, inverted with the exact
    [0, mu_max] matrix at its stability cutoff (one exact build gives both)."""
    matrix, cutoff = _stability_build(system, args.mu_max, args.tolerance)
    return relative_error_curve(
        system, matrix, args.mu, max_shots, args.trials, args.seed,
        level=args.level, max_admissible_n=cutoff, workers=args.workers,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    system = _resolve_system(args)
    # Checks --target and --mu before the curve is computed and before any file is written.
    base_shots = shots_to_relative_error(args.target, convention=args.baseline_convention)
    base = baseline_error_curve(args.mu, args.max_shots, convention=args.baseline_convention)
    curve = _convergence(args, system, args.max_shots)
    mux_shots = curve.shots_to(args.target)
    med = curve.median()
    out = Path(args.output)
    rows = (f"{i + 1},{_fmt(med[i])},{_fmt(base[i])}" for i in range(args.max_shots))
    _write_lines(out, "shots,rel_err_multiplexed,rel_err_single_pixel", rows)
    _write_manifest(out, args, system)
    head = f"wrote {out}: to reach {100 * args.target:.3g}% relative width at mu={args.mu}: "
    gates = f"{base_shots:.4g}" if base_shots >= 10**6 else base_shots
    single = f"single-pixel {gates} shots ({args.baseline_convention} width)"
    if np.isinf(mux_shots):
        print(f"{head}multiplexed (median) not reached within --max-shots {args.max_shots}, {single}")
    else:
        print(f"{head}multiplexed {mux_shots:.0f} shots (median), {single}, advantage x{base_shots / mux_shots:.1f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.values:  # parsed by _int_list: None when the list is empty
        raise ValueError("--values must name at least one integer")
    values = sorted(set(args.values))  # the grid both modes walk
    if args.over == "shots":
        if args.mu is None:
            raise ValueError("--mu is required with --over shots")
        _integer(values[0], "--values: shot counts", 1)
    else:
        _integer(values[0], "--values: mu")
    system = _resolve_system(args)
    weights = system.bin_weights()
    out = Path(args.output)
    if args.over == "mu":
        exact = coherent_click_rows(values, weights, system.detector)
        # Value mu is simulated as matrix --method mc simulates row mu: every value on the
        # shared words of derive_seed(seed), so its histogram is the matrix row's.
        _, batches = mc_rows(system, values, args.shots, args.seed, workers=args.workers)
        lines = []
        for mu, probs, batch in zip(values, exact, batches):
            for n, c in enumerate(batch.histogram):
                lines.append(f"{mu},{n},{c},{_fmt(c / batch.n_shots)},{_fmt(probs[n])}")
        _write_lines(out, "mu,n,count,probability,probability_exact", lines)
    else:
        curve = _convergence(args, system, values[-1])
        med, q25, q75 = curve.median(), curve.quantile(0.25), curve.quantile(0.75)
        rows = (f"{k},{_fmt(med[k - 1])},{_fmt(q25[k - 1])},{_fmt(q75[k - 1])}" for k in values)
        _write_lines(out, "shots,median_rel_err,q25_rel_err,q75_rel_err", rows)
    _write_manifest(out, args, system)
    print(f"wrote {out}: sweep over {args.over} at {len(values)} points")
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--mu", type=float, help="coherent source mean photon number")
    source.add_argument("--fock", type=int, help="exact photon number instead of --mu")
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
    _add_system_args(p, required=False)
    p.add_argument("-m", "--matrix", required=True, help="matrix file from the matrix subcommand")
    counts = p.add_mutually_exclusive_group(required=True)
    counts.add_argument("--n", type=int, default=None, help="single observed click count")
    counts.add_argument("--obs", default=None, help="file with one click count per line")
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


# Exit code and stderr label of each error type. main takes the first entry
# the error is an instance of; ValueError, which every bad argument raises,
# comes last so that it never shadows a narrower entry.
_EXITS = (
    (ConfigurationError, 3, "configuration error"),
    (MatrixFormatError, 3, "matrix file error"),
    (OSError, 3, "file error"),
    (ModelUnsupportedError, 4, "unsupported by this model"),
    (DegenerateEvidenceError, 5, "degenerate evidence"),
    (ValueError, 2, "usage error"),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _EXITS) as exc:
        code, label = next((code, label) for kind, code, label in _EXITS if isinstance(exc, kind))
        print(f"binflux: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
