"""
Command-line entry point: one solve per invocation, then the command's
verdict `_COMMANDS[name](cfg, traj, outdir) -> report lines` on that solve.

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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, build_experiment, parse_config
from .ratefit import fit_rate
from .remainder import remainder_decay_fit
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


def cmd_decay(cfg, traj, outdir: Path) -> list[str]:
    analysis = _analyze(traj, outdir, with_asymptotic=False)
    zero = _zero_data(analysis)
    if all(zero.values()):
        return ["[PASS] decay: vacuous (zero data)"]
    # dispersive decay only sets in past t ~ width^2; fit from t = 10 on
    mask = analysis.times >= max(10.0, cfg.t_end / 20.0) * (1 - 1e-12)
    times = analysis.times[mask]
    lines = []
    for name, series in (("u", analysis.u_linf[mask]), ("v", analysis.v_linf[mask])):
        label = f"max-norm decay of {name}"
        if zero[name]:
            lines.append(_line(True, label, "vacuous (zero field)"))
            continue
        fit = fit_rate(times, series)
        ok = DECAY_BAND[0] <= fit.exponent <= DECAY_BAND[1]
        lines.append(_line(ok, label, f"exponent {fit.exponent:.4f} in [{DECAY_BAND[0]}, {DECAY_BAND[1]}]"))
    return lines


def cmd_scattering(cfg, traj, outdir: Path) -> list[str]:
    analysis = _analyze(traj, outdir, with_asymptotic=False)
    zero = _zero_data(analysis)
    if all(zero.values()):
        return ["[PASS] scattering: vacuous (zero data)"]
    lines = []
    if analysis.est_u is None:
        return ["[FAIL] scattering: window too short for limit estimation"]
    for name, est in (("u", analysis.est_u), ("v", analysis.est_v)):
        write_series_csv(outdir / f"cauchy_{name}.csv", "t,dyadic_diff_linf", est.cauchy)
        labels = (f"{name} limit max-norm rate", f"{name} limit weighted rate", f"{name} dyadic differences")
        if zero[name]:
            lines.extend(_line(True, label, "vacuous (zero field)") for label in labels)
            continue
        ok_l = est.fit_linf is not None and est.fit_linf.exponent <= SCATTERING_LINF_MAX
        ok_h = est.fit_h0n is not None and est.fit_h0n.exponent <= SCATTERING_H0N_MAX
        le = est.fit_linf.exponent if est.fit_linf else float("nan")
        he = est.fit_h0n.exponent if est.fit_h0n else float("nan")
        lines.append(_line(ok_l, labels[0], f"exponent {le:.4f} <= {SCATTERING_LINF_MAX}"))
        lines.append(_line(ok_h, labels[1], f"exponent {he:.4f} <= {SCATTERING_H0N_MAX}"))
        diffs = [d for t, d in est.cauchy if 8.0 <= t <= traj.times[-1] / 2.0]
        mono = len(diffs) >= 2 and all(b <= a for a, b in zip(diffs, diffs[1:]))
        lines.append(_line(mono, labels[2], f"{len(diffs)} pairs monotone decreasing"))
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
    exponent = report.fit.exponent
    finite = report.bound_ratios[np.isfinite(report.bound_ratios)]
    spread = float(np.max(finite) / np.median(finite)) if finite.size else float("nan")
    return [
        _line(exponent <= REMAINDER_SLOPE_MAX, "remainder decay", f"exponent {exponent:.4f} <= {REMAINDER_SLOPE_MAX}"),
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
    grid = traj.grid
    t_lo = max(cfg.t_end / 16.0, 1.05 * grid.L**2 / (4.0 * np.pi * grid.N))
    lines = []
    for name, series in (("u", analysis.asym_u), ("v", analysis.asym_v)):
        label = f"{name} asymptotic residual"
        mask = (analysis.times >= t_lo) & np.isfinite(series)
        if zero[name]:
            lines.append(_line(True, label, "vacuous (zero field)"))
        elif np.count_nonzero(mask) < 4:
            lines.append(_line(False, label, "fewer than 4 usable snapshots"))
        else:
            fit = fit_rate(analysis.times[mask], series[mask])
            ok = fit.exponent <= ASYMPTOTIC_SLOPE_MAX
            lines.append(_line(ok, label, f"exponent {fit.exponent:.4f} <= {ASYMPTOTIC_SLOPE_MAX}"))
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
