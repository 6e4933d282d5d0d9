"""
Spans around the public functions of scatterlab, recorded from outside.

`Tracer.install()` replaces each traced function at every module binding
inside the package where other layers look it up (module globals, and dict
tables such as the CLI's command map), so calls between layers and calls
within a module both pass through the wrapper.  `uninstall()` puts the
original objects back.  Spans are kept in memory and turned into per-layer
metrics by `layer_metrics`; nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

# layer (module) -> public functions traced in it
TRACED = {
    "solver": ("evolve", "check_domain_for_horizon"),
    "propagator": ("spectrum_at", "free_evolve"),
    "scattering": (
        "analyze_trajectory",
        "accumulate_phase",
        "corrected_spectra",
        "estimate_limit",
        "asymptotic_residual",
    ),
    "remainder": ("profile_spectra", "remainder_decay_fit", "remainder_physical", "remainder_oracle"),
    "spectral": ("fourier_forward", "fourier_inverse", "norm_L2", "norm_Linf", "norm_L1", "norm_H0n", "norm_Hn0"),
    "ratefit": ("fit_rate",),
    "trajio": ("save_trajectory", "load_trajectory", "write_snapshot_csv", "write_series_csv"),
    "config": ("parse_config", "build_experiment"),
    "cli": ("cmd_simulate", "cmd_decay", "cmd_scattering", "cmd_remainder", "cmd_asymptotic", "oracle_cross_check"),
}

CLI_COMMANDS = ("simulate", "decay", "scattering", "remainder", "asymptotic")
NORMS = ("norm_L2", "norm_Linf", "norm_L1", "norm_H0n", "norm_Hn0")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("solver.evolve_s", "s", "lower"),
    ("solver.evolve_calls", "count", "lower"),
    ("solver.nominal_steps", "count", "lower"),
    ("solver.us_per_nominal_step", "us", "lower"),
    ("solver.computed_gflops", "GFLOP/s", "higher"),
    ("solver.check_domain_calls", "count", "lower"),
    ("solver.mass_drift_rel", "ratio", "lower"),
    ("solver.self_s", "s", "lower"),
    ("propagator.spectrum_at_s", "s", "lower"),
    ("propagator.spectrum_at_calls", "count", "lower"),
    ("propagator.free_evolve_s", "s", "lower"),
    ("propagator.free_evolve_calls", "count", "lower"),
    ("propagator.self_s", "s", "lower"),
    ("scattering.analyze_trajectory_s", "s", "lower"),
    ("scattering.analyze_trajectory_self_s", "s", "lower"),
    ("scattering.accumulate_phase_s", "s", "lower"),
    ("scattering.corrected_spectra_s", "s", "lower"),
    ("scattering.estimate_limit_s", "s", "lower"),
    ("scattering.asymptotic_residual_s", "s", "lower"),
    ("scattering.asymptotic_residual_calls", "count", "lower"),
    ("scattering.ray_yield", "ratio", "higher"),
    ("scattering.self_s", "s", "lower"),
    ("remainder.profile_spectra_calls", "count", "lower"),
    ("remainder.profile_spectra_per_snapshot", "calls/snapshot", "lower"),
    ("remainder.profile_spectra_s", "s", "lower"),
    ("remainder.remainder_decay_fit_s", "s", "lower"),
    ("remainder.remainder_physical_calls", "count", "lower"),
    ("remainder.remainder_oracle_s", "s", "lower"),
    ("remainder.self_s", "s", "lower"),
    ("spectral.fourier_forward_calls", "count", "lower"),
    ("spectral.fourier_inverse_calls", "count", "lower"),
    ("spectral.transform_s", "s", "lower"),
    ("spectral.norm_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("ratefit.fit_rate_calls", "count", "lower"),
    ("ratefit.fit_rate_s", "s", "lower"),
    ("trajio.save_trajectory_s", "s", "lower"),
    ("trajio.bytes_written", "B", "lower"),
    ("trajio.load_trajectory_s", "s", "lower"),
    ("trajio.bytes_read", "B", "lower"),
    ("trajio.csv_s", "s", "lower"),
    ("trajio.csv_bytes", "B", "lower"),
    ("config.parse_config_s", "s", "lower"),
    ("config.build_experiment_s", "s", "lower"),
    ("config.build_experiment_calls", "count", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.decay_s", "s", "lower"),
    ("cli.scattering_s", "s", "lower"),
    ("cli.remainder_s", "s", "lower"),
    ("cli.asymptotic_s", "s", "lower"),
    ("cli.oracle_cross_check_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# metrics that are exact counts of work and must repeat run to run
EXACT = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "B", "calls/snapshot")
) + ("scattering.ray_yield",)

# FFTs of length N per Strang step with fused linear half-steps (u and v,
# forward and inverse); used only for the computed flop rate
FFTS_PER_STEP = 4


def nominal_steps(dt: float, schedule) -> int:
    """Steps a fixed-step solve takes: whole steps of dt between snapshot
    times plus one shortened step where a segment does not divide evenly."""
    times = sorted({1.0, *(float(t) for t in schedule)})
    steps = 0
    for t0, t1 in zip(times, times[1:]):
        span = t1 - t0
        whole = math.floor(span / dt + 1e-12)
        steps += whole + (span - whole * dt >= 1e-12 * max(1.0, t1))
    return steps


def _masses_drift(traj) -> float:
    import numpy as np

    mu = np.array([np.sum(np.abs(s.u.samples) ** 2) for s in traj.snapshots])
    mv = np.array([np.sum(np.abs(s.v.samples) ** 2) for s in traj.snapshots])
    drift = 0.0
    for m in (mu, mv):
        if m[0] > 0:
            drift = max(drift, float(np.max(np.abs(m - m[0])) / m[0]))
    return drift


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# per-span extras recorded from the call's arguments before it runs, and
# from its result after it returned
def _evolve_before(args, attrs):
    attrs["N"] = args["initial"].grid.N
    attrs["steps"] = nominal_steps(args["dt"], args["schedule"])


def _evolve_after(args, result, attrs):
    attrs["mass_drift_rel"] = _masses_drift(result)


def _ray_before(args, attrs):
    attrs["component"] = args["component"]


def _analysis_before(args, attrs):
    attrs["snapshots"] = len(args["traj"].snapshots)


def _read_before(args, attrs):
    attrs["bytes"] = _path_size(args["path"])


def _written_after(args, result, attrs):
    attrs["bytes"] = _path_size(args["path"])


BEFORE = {
    "solver.evolve": _evolve_before,
    "scattering.asymptotic_residual": _ray_before,
    "scattering.analyze_trajectory": _analysis_before,
    "trajio.load_trajectory": _read_before,
}
AFTER = {
    "solver.evolve": _evolve_after,
    "trajio.save_trajectory": _written_after,
    "trajio.write_snapshot_csv": _written_after,
    "trajio.write_series_csv": _written_after,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.attrs: dict = {}
        self.error = False


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object, object]] = []

    def _wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            if sig:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(bound.arguments, span.attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(bound.arguments, result, span.attrs)
            return result

        return traced

    def install(self) -> None:
        modules = {}
        for layer in TRACED:
            try:
                modules[layer] = importlib.import_module(f"scatterlab.{layer}")
            except ImportError:
                continue  # a layer that no longer exists: its metrics read 0
        package = [m for n, m in sys.modules.items() if n == "scatterlab" or n.startswith("scatterlab.")]
        for layer, names in TRACED.items():
            module = modules.get(layer)
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue  # renamed or removed: its metrics read 0
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn, None))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    self._patched.append((value, key, fn, "dict"))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, fn, kind in reversed(self._patched):
            if kind == "dict":
                holder[key] = fn
            else:
                setattr(holder, key, fn)
        self._patched.clear()

    def dump(self) -> list[dict]:
        children = _children(self.spans)
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self": self_time(self.spans, i, children),
                **({"attrs": s.attrs} if s.attrs else {}),
                **({"error": True} if s.error else {}),
            }
            for i, s in enumerate(self.spans)
        ]


def _children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.parent, []).append(i)
    return out


def self_time(spans: list[Span], i: int, children=None) -> float:
    """Duration of span i minus the time its direct children cover (children
    of one span never overlap: the program is single-threaded)."""
    kids = (children or _children(spans)).get(i, [])
    s = spans[i]
    return (s.end - s.start) - sum(spans[k].end - spans[k].start for k in kids)


def _outermost(spans: list[Span], names) -> list[int]:
    """Spans named in `names` with no ancestor also named in `names`, so a
    group's time is counted once even when its members nest."""
    keep = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            keep.append(i)
    return keep


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced iteration, except
    the trace.*_s wall times, which need the untraced iterations too."""

    def named(name):
        return [s for s in spans if s.name == name]

    def inclusive(*names):
        return sum(spans[i].end - spans[i].start for i in _outermost(spans, set(names)))

    def calls(name):
        return len(named(name))

    children = _children(spans)
    layer_self = {}
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time(spans, i, children)

    evolve = named("solver.evolve")
    steps = sum(s.attrs["steps"] for s in evolve)
    evolve_s = inclusive("solver.evolve")
    flops = sum(s.attrs["steps"] * FFTS_PER_STEP * 5.0 * s.attrs["N"] * math.log2(s.attrs["N"]) for s in evolve)

    rays_u = [s for s in named("scattering.asymptotic_residual") if s.attrs.get("component") == "u"]
    analyses = [i for i, s in enumerate(spans) if s.name == "scattering.analyze_trajectory"]
    analysed_snapshots = sum(spans[i].attrs.get("snapshots", 0) for i in analyses)
    analysis_set = set(analyses)

    def under_analysis(i):
        p = spans[i].parent
        while p >= 0:
            if p in analysis_set:
                return True
            p = spans[p].parent
        return False

    profile_in_analysis = sum(
        1 for i, s in enumerate(spans) if s.name == "remainder.profile_spectra" and under_analysis(i)
    )

    def attr_sum(names, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    csv_names = ("trajio.write_snapshot_csv", "trajio.write_series_csv")
    m = {
        "solver.evolve_s": evolve_s,
        "solver.evolve_calls": len(evolve),
        "solver.nominal_steps": steps,
        "solver.us_per_nominal_step": 1e6 * evolve_s / steps if steps else 0.0,
        "solver.computed_gflops": flops / evolve_s / 1e9 if evolve_s > 0 else 0.0,
        "solver.check_domain_calls": calls("solver.check_domain_for_horizon"),
        "solver.mass_drift_rel": max((s.attrs.get("mass_drift_rel", 0.0) for s in evolve), default=0.0),
        "propagator.spectrum_at_s": inclusive("propagator.spectrum_at"),
        "propagator.spectrum_at_calls": calls("propagator.spectrum_at"),
        "propagator.free_evolve_s": inclusive("propagator.free_evolve"),
        "propagator.free_evolve_calls": calls("propagator.free_evolve"),
        "scattering.analyze_trajectory_s": inclusive("scattering.analyze_trajectory"),
        "scattering.analyze_trajectory_self_s": sum(self_time(spans, i, children) for i in analyses),
        "scattering.accumulate_phase_s": inclusive("scattering.accumulate_phase"),
        "scattering.corrected_spectra_s": inclusive("scattering.corrected_spectra"),
        "scattering.estimate_limit_s": inclusive("scattering.estimate_limit"),
        "scattering.asymptotic_residual_s": inclusive("scattering.asymptotic_residual"),
        "scattering.asymptotic_residual_calls": calls("scattering.asymptotic_residual"),
        "scattering.ray_yield": (
            sum(1 for s in rays_u if not s.error) / len(rays_u) if rays_u else 0.0
        ),
        "remainder.profile_spectra_calls": calls("remainder.profile_spectra"),
        "remainder.profile_spectra_per_snapshot": (
            profile_in_analysis / analysed_snapshots if analysed_snapshots else 0.0
        ),
        "remainder.profile_spectra_s": inclusive("remainder.profile_spectra"),
        "remainder.remainder_decay_fit_s": inclusive("remainder.remainder_decay_fit"),
        "remainder.remainder_physical_calls": calls("remainder.remainder_physical"),
        "remainder.remainder_oracle_s": inclusive("remainder.remainder_oracle"),
        "spectral.fourier_forward_calls": calls("spectral.fourier_forward"),
        "spectral.fourier_inverse_calls": calls("spectral.fourier_inverse"),
        "spectral.transform_s": inclusive("spectral.fourier_forward", "spectral.fourier_inverse"),
        "spectral.norm_s": inclusive(*(f"spectral.{n}" for n in NORMS)),
        "ratefit.fit_rate_calls": calls("ratefit.fit_rate"),
        "ratefit.fit_rate_s": inclusive("ratefit.fit_rate"),
        "trajio.save_trajectory_s": inclusive("trajio.save_trajectory"),
        "trajio.bytes_written": attr_sum(("trajio.save_trajectory",), "bytes"),
        "trajio.load_trajectory_s": inclusive("trajio.load_trajectory"),
        "trajio.bytes_read": attr_sum(("trajio.load_trajectory",), "bytes"),
        "trajio.csv_s": inclusive(*csv_names),
        "trajio.csv_bytes": attr_sum(csv_names, "bytes"),
        "config.parse_config_s": inclusive("config.parse_config"),
        "config.build_experiment_s": inclusive("config.build_experiment"),
        "config.build_experiment_calls": calls("config.build_experiment"),
        "cli.oracle_cross_check_s": inclusive("cli.oracle_cross_check"),
        "trace.spans": len(spans),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = inclusive(f"cli.cmd_{command}")
    for layer in TRACED:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return m
