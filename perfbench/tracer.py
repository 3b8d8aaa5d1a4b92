"""Outside-in tracer for the traced benchmark run.

The program has no spans of its own yet, so this module wraps each layer's
public functions from outside: every binflux module attribute that refers
to a traced function (``inference.simulate_batch``, ``cli.stability_max_n``,
``mc_engine.uniform_lanes`` ...) is replaced by a wrapper for the duration
of a ``with Tracer(...)`` block and restored afterwards. Module-global
lookups happen at call time, so calls inside one module are seen too.

Each call becomes a span kept in memory with the index of its parent span.
A span's self time is its duration minus the durations of its children.
Counts are taken from call arguments and return values.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# Layer modules whose public functions are wrapped; the short name is the
# metric prefix.
LAYERS = {
    "binflux._rng": "rng",
    "binflux.mc_engine": "mc_engine",
    "binflux.exact_oracle": "exact_oracle",
    "binflux.response_matrix": "response_matrix",
    "binflux.inference": "inference",
    "binflux.baseline": "baseline",
    "binflux.cli": "cli",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _manifest_bytes(argv) -> int:
    """Size of the manifest a cli.main call wrote next to its -o output."""
    argv = list(argv or [])
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            return _file_size(argv[argv.index(flag) + 1] + ".manifest.json")
    return 0


def _build_counts(a: dict, result) -> dict:
    kinds = [p.kind for p in result.provenance]
    return {
        "rows": len(kinds),
        "rows_interpolated": kinds.count("interpolated"),
        "rows_direct": len(kinds) - kinds.count("interpolated"),
    }


# Function name -> (args bound by name, return value) -> counts for the span.
COUNTERS = {
    "uniform_lanes": lambda a, r: {
        "shots": a["n_shots"],
        "lanes": a["n_shots"] * a["lanes"],
        "bytes": a["n_shots"] * -(-a["lanes"] // 4) * 4 * 8,
    },
    "simulate_batch": lambda a, r: {"shots": a["n_shots"]},
    "build_matrix": _build_counts,
    "save_matrix": lambda a, r: {"bytes": _file_size(a["path"])},
    "load_matrix": lambda a, r: {"bytes": _file_size(a["path"])},
    "relative_error_curve": lambda a, r: {"used": a["n_trials"] * a["max_shots"]},
    "main": lambda a, r: {"manifest_bytes": _manifest_bytes(a.get("argv"))},
}


@dataclass(slots=True)
class Span:
    layer: str
    func: str
    parent: int
    t0: int = 0
    t1: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


def public_functions(module) -> list:
    return [
        obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Context manager that records spans of every traced call inside it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, func):
        spans, stack = self.spans, self._stack
        name = func.__name__
        counter = COUNTERS.get(name)
        sig = inspect.signature(func) if counter else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for mod_name, layer in LAYERS.items():
            for func in public_functions(sys.modules[mod_name]):
                wrappers[id(func)] = (func, self._wrap(layer, func))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "binflux" or mod_name.startswith("binflux.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span in ns: its duration minus its children's."""
    own = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.dur
    return own


def layer_metrics(spans: list[Span], wall_ns: int, ops_ns: int) -> dict:
    """Per-layer times and counts of one traced pass.

    wall_ns is the pass's wall time and ops_ns the part spent inside the
    workload's operations; the rest is the benchmark's own loop. Time inside
    operations but outside every traced call is reported as unattributed.
    """
    own = self_times(spans)
    ns = 1e-9
    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = 0.0
    for key in (
        "rng.uniform_lanes_s", "rng.lanes", "rng.bytes_computed",
        "mc_engine.shots", "mc_engine.calls", "exact_oracle.rows", "exact_oracle.fock_s",
        "response_matrix.build_self_s", "response_matrix.rows_direct",
        "response_matrix.rows_interpolated", "response_matrix.save_s", "response_matrix.load_s",
        "response_matrix.bytes_written", "response_matrix.bytes_read",
        "inference.stability_s", "inference.stability_rows", "inference.hpd_s",
        "inference.hpd_calls", "inference.posterior_s", "inference.curve_self_s",
        "baseline.calls", "cli.manifest_bytes",
    ):
        m[key] = 0
    mc_total_ns = 0
    mc_lanes = mc_lane_shots = 0
    curve_used = curve_simulated = 0
    root_ns = 0
    for i, s in enumerate(spans):
        c = s.counts
        parent = spans[s.parent] if s.parent >= 0 else None
        add(f"{s.layer}.self_s", own[i] * ns)
        if parent is None:
            root_ns += s.dur
        f = s.func
        if f == "uniform_lanes":
            add("rng.uniform_lanes_s", s.dur * ns)
            add("rng.lanes", c["lanes"])
            add("rng.bytes_computed", c["bytes"])
            if parent is not None and parent.layer == "mc_engine":
                mc_lanes += c["lanes"]
                mc_lane_shots += c["shots"]
        elif f == "simulate_batch":
            add("mc_engine.shots", c["shots"])
            add("mc_engine.calls", 1)
            mc_total_ns += s.dur
            if parent is not None and parent.func == "relative_error_curve":
                curve_simulated += c["shots"]
        elif f == "coherent_click_distribution":
            add("exact_oracle.rows", 1)
        elif f == "fock_click_distribution":
            add("exact_oracle.fock_s", s.dur * ns)
        elif f == "build_matrix":
            add("response_matrix.build_self_s", own[i] * ns)
            add("response_matrix.rows_direct", c["rows_direct"])
            add("response_matrix.rows_interpolated", c["rows_interpolated"])
            if parent is not None and parent.func == "stability_max_n":
                add("inference.stability_rows", c["rows"])
        elif f == "save_matrix":
            add("response_matrix.save_s", s.dur * ns)
            add("response_matrix.bytes_written", c["bytes"])
        elif f == "load_matrix":
            add("response_matrix.load_s", s.dur * ns)
            add("response_matrix.bytes_read", c["bytes"])
        elif f == "stability_max_n":
            add("inference.stability_s", s.dur * ns)
        elif f == "credible_interval":
            add("inference.hpd_s", s.dur * ns)
            add("inference.hpd_calls", 1)
        elif f in ("posterior_single", "posterior_multi"):
            add("inference.posterior_s", s.dur * ns)
        elif f == "relative_error_curve":
            add("inference.curve_self_s", own[i] * ns)
            curve_used += c["used"]
        elif f == "main" and s.layer == "cli":
            add("cli.manifest_bytes", c["manifest_bytes"])
        if s.layer == "baseline":
            add("baseline.calls", 1)
    calls = m["mc_engine.calls"]
    m["mc_engine.s_per_call"] = mc_total_ns * ns / calls if calls else 0.0
    m["mc_engine.lanes_per_shot"] = mc_lanes / mc_lane_shots if mc_lane_shots else 0.0
    m["inference.accept_ratio"] = curve_used / curve_simulated if curve_simulated else 0.0
    wall = wall_ns * ns
    m["trace.wall_s"] = wall
    m["bench.self_s"] = (wall_ns - ops_ns) * ns
    m["trace.unattributed_frac"] = (ops_ns - root_ns) / wall_ns if wall_ns > 0 else 0.0
    return m
