"""
Command-line entry point: one solve per invocation, then the command's
verdict `_COMMANDS[name](cfg, traj, outdir) -> report lines` on that solve.
A verdict reads its horizon from the trajectory and of the config only
simulate's `save_snapshots`; every exponent line of decay, scattering and
asymptotic comes from `_exponent_line`, which names a fit's shortfall.

    scatterlab <simulate|decay|scattering|remainder|asymptotic>
               --config <path> [--outdir <path>] [--seed <u64>]

The seed (`--seed`, config key `io.seed`) feeds nothing: no verdict draws
random numbers.  It is still parsed and validated (non-negative) because the
benchmark harness passes `--seed` on every call.

Exit codes: 0 success, 1 runtime or numerical failure, 2 configuration error,
including an output directory that cannot be created and a non-UTF-8 config.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, build_experiment, parse_config
from .ratefit import fit_rate
from .remainder import MIN_FIT_DECADES, remainder_decay_fit
from .scattering import analyze_trajectory
from .solver import PairState, evolve, geometric_schedule
from .trajio import save_trajectory, write_series_csv, write_snapshot_csv

# pass lines used by the plain-text reports
DECAY_BAND = (-0.6, -0.4)
REMAINDER_SLOPE_MAX = -1.0
REMAINDER_RATIO_SPREAD = 10.0
SCATTERING_LINF_MAX = -0.2
SCATTERING_H0N_MAX = -0.05
ASYMPTOTIC_SLOPE_MAX = -0.55
MASS_DRIFT_MAX = 1e-10


def _line(ok: bool, label: str, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"


def _analyze(traj, outdir: Path, with_asymptotic: bool = True):
    analysis = analyze_trajectory(traj, with_asymptotic)
    write_snapshot_csv(outdir / "snapshots.csv", analysis)
    return analysis


def _zero_data(analysis) -> dict[str, bool]:
    """Per field, whether it vanishes at every snapshot: its rate verdicts are
    then vacuous, and with both fields zero the whole command is."""
    return {"u": np.max(analysis.u_linf) == 0.0, "v": np.max(analysis.v_linf) == 0.0}


def cmd_simulate(cfg, traj, outdir: Path) -> list[str]:
    if cfg.save_snapshots:
        save_trajectory(traj, outdir / "trajectory.bin")
    analysis = _analyze(traj, outdir)
    drift_u = np.max(np.abs(analysis.u_mass - analysis.u_mass[0]))
    drift_v = np.max(np.abs(analysis.v_mass - analysis.v_mass[0]))
    ref_u = analysis.u_mass[0] or 1.0
    ref_v = analysis.v_mass[0] or 1.0
    rel = max(drift_u / ref_u, drift_v / ref_v)
    return [
        _line(rel <= MASS_DRIFT_MAX, "mass conservation", f"relative drift {rel:.3e} <= {MASS_DRIFT_MAX:.0e}"),
    ]


def _exponent_line(label: str, zero: bool, window: str, times, series, bounds) -> str:
    """The verdict on the exponent p of series ~ t^p, fitted over times, the
    snapshots in the fit window: vacuous on a zero field, the shortfall named
    when there is no fit, else p against bounds (lo, hi), lo None for p <= hi."""
    if zero:
        return _line(True, label, "vacuous (zero field)")
    if times.size < 4:
        return _line(False, label, f"{times.size} snapshots at {window}, fewer than 4")
    try:
        p = fit_rate(times, series).exponent
    except ValueError as exc:  # a value that is not positive
        return _line(False, label, f"no fit: {exc}")
    lo, hi = bounds
    criterion = f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
    return _line((lo is None or lo <= p) and p <= hi, label, f"exponent {p:.4f} {criterion}")


def cmd_decay(cfg, traj, outdir: Path) -> list[str]:
    analysis = _analyze(traj, outdir, with_asymptotic=False)
    zero = _zero_data(analysis)
    if all(zero.values()):
        return ["[PASS] decay: vacuous (zero data)"]
    # dispersive decay only sets in past t ~ width^2; fit from t = 10 on
    start = max(10.0, traj.times[-1] / 20.0)
    fit, window = analysis.times >= start * (1 - 1e-12), f"t >= {start:g}"
    return [
        _exponent_line(f"max-norm decay of {name}", zero[name], window, analysis.times[fit], s[fit], DECAY_BAND)
        for name, s in (("u", analysis.u_linf), ("v", analysis.v_linf))
    ]


def cmd_scattering(cfg, traj, outdir: Path) -> list[str]:
    analysis = _analyze(traj, outdir, with_asymptotic=False)
    zero = _zero_data(analysis)
    if all(zero.values()):
        return ["[PASS] scattering: vacuous (zero data)"]
    if analysis.est_u is None:
        return ["[FAIL] scattering: window too short for limit estimation"]
    # estimate_limit's fit window, which leaves out the anchor's trivial zero
    t_fit = traj.times[-1] / 4.0
    fit, window = analysis.times <= t_fit, f"t <= {t_fit:g}"
    lines = []
    for name, est in (("u", analysis.est_u), ("v", analysis.est_v)):
        write_series_csv(outdir / f"cauchy_{name}.csv", "t,dyadic_diff_linf", est.cauchy)
        rates = ("max-norm", est.diff_linf, SCATTERING_LINF_MAX), ("weighted", est.diff_h0n, SCATTERING_H0N_MAX)
        for kind, s, hi in rates:
            label = f"{name} limit {kind} rate"
            lines.append(_exponent_line(label, zero[name], window, analysis.times[fit], s[fit], (None, hi)))
        diffs = [d for t, d in est.cauchy if 8.0 <= t <= traj.times[-1] / 2.0]
        mono = len(diffs) >= 2 and all(b <= a for a, b in zip(diffs, diffs[1:]))
        detail = "vacuous (zero field)" if zero[name] else f"{len(diffs)} pairs monotone decreasing"
        lines.append(_line(zero[name] or mono, f"{name} dyadic differences", detail))
    return lines


def cmd_remainder(cfg, traj, outdir: Path) -> list[str]:
    report = remainder_decay_fit(traj)
    write_series_csv(
        outdir / "remainder_decay.csv",
        "t,sup_abs_R,bound_ratio",
        zip(report.times, report.sup_values, report.bound_ratios),
    )
    if report.vacuous:
        return ["[PASS] remainder decay: vacuous (zero interaction)"]
    if report.fit is None:
        t0, t1 = report.times[0], report.times[-1]
        span = f"t = {t0:g} .. {t1:g} spans {np.log10(t1 / t0):.2f} decades, fewer than {MIN_FIT_DECADES}"
        decay = _line(False, "remainder decay", span)
    else:
        e = report.fit.exponent
        decay = _line(e <= REMAINDER_SLOPE_MAX, "remainder decay", f"exponent {e:.4f} <= {REMAINDER_SLOPE_MAX}")
    finite = report.bound_ratios[np.isfinite(report.bound_ratios)]
    spread = float(np.max(finite) / statistics.median(finite.tolist())) if finite.size else float("nan")
    return [
        decay,
        _line(
            spread <= REMAINDER_RATIO_SPREAD, "remainder bound ratio", f"max/median {spread:.3f} <= {REMAINDER_RATIO_SPREAD}"
        ),
    ]


def cmd_asymptotic(cfg, traj, outdir: Path) -> list[str]:
    analysis = _analyze(traj, outdir)
    zero = _zero_data(analysis)
    if all(zero.values()):
        return ["[PASS] asymptotic: vacuous (zero data)"]
    if analysis.est_u is None:
        return ["[FAIL] asymptotic: window too short for limit estimation"]
    # a row is NaN where the analysis found its rays past the grid's band
    t_lo = traj.times[-1] / 16.0
    window, bounds = f"t >= {t_lo:g} with a finite residual", (None, ASYMPTOTIC_SLOPE_MAX)
    lines = []
    for name, s in (("u", analysis.asym_u), ("v", analysis.asym_v)):
        fit, label = (analysis.times >= t_lo) & np.isfinite(s), f"{name} asymptotic residual"
        lines.append(_exponent_line(label, zero[name], window, analysis.times[fit], s[fit], bounds))
    return lines


_COMMANDS = {
    "simulate": cmd_simulate,
    "decay": cmd_decay,
    "scattering": cmd_scattering,
    "remainder": cmd_remainder,
    "asymptotic": cmd_asymptotic,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scatterlab", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--outdir", default=None)
    parser.add_argument(
        "--seed", type=int, default=None, help="accepted and validated (non-negative); feeds nothing"
    )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.outdir is not None:
            cfg = replace(cfg, outdir=args.outdir)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        _, params, u1, v1 = build_experiment(cfg)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        schedule = geometric_schedule(cfg.t_end, cfg.schedule_ratio)
        traj = evolve(PairState(u1, v1, 1.0), cfg.t_end, cfg.dt, schedule, params)
        lines = _COMMANDS[args.command](cfg, traj, outdir)
    except Exception as exc:  # numerical / runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    report = "\n".join(lines) + "\n"
    (outdir / f"{args.command}_report.txt").write_text(report)
    print(report, end="")
    return 0 if all(line.startswith("[PASS]") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
