"""
One iteration of a benchmark workload inside a fresh process.

    python3 perfbench/workload.py prepare --workload W --work DIR [--scale S]
    python3 perfbench/workload.py setup   --workload W --work DIR [--scale S]
    python3 perfbench/workload.py run     --workload W --work DIR [--scale S]
                                          --seed N --index I --trace 0|1
                                          --result FILE [--record]

run.py starts these with BLAS/OpenMP threads pinned to 1 and PYTHONPATH set
to the checkout's src/.  `prepare` builds untimed inputs and `setup` times
one set-up (import, config, initial data).  `run` does a set-up, runs the
workload once (traced with --trace 1), and checks every output against the
anchor recorded in anchors/<scale>/<workload>.json; --record first rewrites
that anchor from this iteration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANCHORS = HERE / "anchors"

# Largest accepted deviation of an output number from its anchor, relative to
# the column's scale: its largest anchor magnitude, but at least FIELD_FLOOR
# times the workload's field magnitude (the largest u_linf/v_linf anchored).
# The reference solve is itself only accurate to about 5e-8 (its fixed-step
# splitting error), so 1e-6 rejects any change in the results a report rests
# on.  Columns of floating-point round-off (the v = 0 replay's limit
# differences, about 1e-13 of the field) lie below the floor; they are held to
# 1e-10 of the field, which any numerically equivalent rewrite meets, and the
# rate fits to such a column are not compared at all.
TOLERANCE = 1e-6
FIELD_FLOOR = 1e-4

# in-memory rate fit -> the CSV column of the series it was fitted to
FIT_SOURCE = {
    f"{name}.{fit}.exponent": f"snapshots.csv:w{letter}_limit_diff_{norm}"
    for name, letter in (("u", "f"), ("v", "g"))
    for fit, norm in (("fit_linf", "linf"), ("fit_h0n", "h0n"))
}

# Report exponents are parsed from text printed to a few decimals; a rate
# that moves by 1e-12 can flip the last digit, so they may differ from the
# anchor by this many units of that digit.
PRINTED_UNITS = 1.5

# final-snapshot samples kept in an anchor (evenly strided over the grid)
FINAL_POINTS = 512

# Decoupled (v = 0) replay input: snapshots are exact free evolutions of
# exp(-x^2); the full scale is the test suite's decoupled fixture.
DECOUPLED_TIMES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
DECOUPLED_GRID = {"full": (2100.0, 2**18), "smoke": (300.0, 4096)}

# shrunken grid used by the benchmark's own tests: same physics as
# configs/quick.cfg on a quarter of the points and the same horizon
SMOKE_CONFIG = """\
grid.L = 480
grid.N = 1024
solver.dt = 0.05
solver.t_end = 40
data.shape = gaussian
data.epsilon = 0.1
data.width = 3.0
analysis.alpha = 0.01
analysis.delta = 0.24
analysis.beta = 0.2
analysis.n = 1
io.save_snapshots = {save}
"""

WORKLOADS = ("reference_simulate", "decoupled_replay", "quick_sweep")
# CLI commands each CLI workload runs, in order, in one process
COMMANDS = {
    "reference_simulate": ("simulate",),
    "quick_sweep": ("simulate", "decay", "scattering", "remainder", "asymptotic"),
}

_EXPONENT = re.compile(r"exponent (-?\d+(?:\.(\d+))?(?:e[-+]?\d+)?)")


class HarnessError(RuntimeError):
    """The benchmark cannot run here (not a measurement of the program)."""


def import_scatterlab() -> float:
    """Import the checkout's scatterlab and return the seconds it took."""
    start = time.perf_counter()
    import scatterlab

    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    origin = Path(scatterlab.__file__).resolve().parent.parent
    if origin != src:
        raise HarnessError(f"scatterlab was imported from {origin}, not from {src}")
    return elapsed


def config_path(workload: str, scale: str, work: Path) -> Path:
    if scale == "smoke":
        return work / f"{workload}.cfg"
    name = "reference.cfg" if workload == "reference_simulate" else "quick.cfg"
    return ROOT / "configs" / name


def trajectory_path(work: Path) -> Path:
    return work / "decoupled.bin"


def decoupled_initial(scale: str):
    """Grid and initial field u1 = exp(-x^2) of the decoupled replay."""
    import numpy as np
    import scatterlab as sl

    length, points = DECOUPLED_GRID[scale]
    grid = sl.Grid1D(L=length, N=points)
    return grid, sl.ComplexField(grid, np.exp(-grid.x**2), "physical")


def prepare(workload: str, scale: str, work: Path) -> None:
    """Untimed inputs: smoke configs, and the decoupled trajectory file."""
    if workload == "decoupled_replay":
        import_scatterlab()
        import numpy as np
        import scatterlab as sl

        grid, u1 = decoupled_initial(scale)
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        snaps = tuple(sl.PairState(sl.free_evolve(u1, t - 1.0), zero, t) for t in DECOUPLED_TIMES)
        traj = sl.Trajectory(grid=grid, params=sl.AnalysisParams.make(epsilon=1.0), snapshots=snaps, dt=float("nan"))
        sl.save_trajectory(traj, trajectory_path(work))
    elif scale == "smoke":
        save = "true" if workload == "reference_simulate" else "false"
        config_path(workload, scale, work).write_text(SMOKE_CONFIG.format(save=save))


def setup(workload: str, scale: str, work: Path) -> float:
    """Import scatterlab, then parse and validate the config and build the
    initial data (for the decoupled replay: its grid and initial field)."""
    seconds = import_scatterlab()
    import scatterlab as sl

    start = time.perf_counter()
    if workload == "decoupled_replay":
        decoupled_initial(scale)
    else:
        sl.build_experiment(sl.parse_config(config_path(workload, scale, work)))
    return seconds + time.perf_counter() - start


# --- one iteration: the timed calls, then the outputs they left -------------


def _cli(command: str, cfg: Path, out: Path, seed: int):
    """One CLI command; returns None on exit 0, else the failure."""
    import scatterlab.cli

    try:
        code = scatterlab.cli.main([command, "--config", str(cfg), "--outdir", str(out), "--seed", str(seed)])
    except Exception as exc:  # an escaped exception is a failed operation
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def iterate(workload: str, scale: str, work: Path, out: Path, seed: int):
    """Run the workload once.  Returns (wall seconds, {op: failure or None},
    small values kept from in-memory results for the output check)."""
    kept: dict = {}
    if workload in COMMANDS:
        cfg = config_path(workload, scale, work)
        status = {}
        start = time.perf_counter()
        for command in COMMANDS[workload]:
            status[command] = _cli(command, cfg, out / command, seed)
        wall = time.perf_counter() - start
    else:
        import scatterlab as sl

        (out / "replay").mkdir(parents=True)
        failure = None
        start = time.perf_counter()
        try:
            traj = sl.load_trajectory(trajectory_path(work))
            analysis = sl.analyze_trajectory(traj)
            sl.write_snapshot_csv(out / "replay" / "snapshots.csv", analysis)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if failure is None:
            kept = {"final": traj.snapshots[-1], "estimates": (analysis.est_u, analysis.est_v)}
        status = {"replay": failure}
    return wall, status, kept


def _strided(prefix: str, samples) -> dict[str, list[float]]:
    step = max(1, len(samples) // FINAL_POINTS)
    picked = samples[::step]
    return {f"{prefix}.re": [float(z.real) for z in picked], f"{prefix}.im": [float(z.imag) for z in picked]}


def _read_csv(path: Path, label: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {f"{label}:{col}": [float(r[j]) for r in body] for j, col in enumerate(header)}


def outputs(workload: str, out: Path, kept: dict):
    """Every output number of one iteration, per operation: CSV columns,
    report exponents and final-snapshot fields.  Also returns, per operation,
    the printed resolution of each column parsed from text."""
    found: dict[str, dict[str, list[float]]] = {}
    printed: dict[str, dict[str, float]] = {}
    for op_dir in sorted(p for p in out.iterdir() if p.is_dir()):
        numbers: dict[str, list[float]] = {}
        units: dict[str, float] = {}
        for path in sorted(op_dir.glob("*.csv")):
            numbers.update(_read_csv(path, path.name))
        for path in sorted(op_dir.glob("*_report.txt")):
            matches = _EXPONENT.findall(path.read_text())
            numbers[f"{path.name}:exponent"] = [float(x) for x, _ in matches]
            units[f"{path.name}:exponent"] = max((10.0 ** -len(d) for _, d in matches), default=0.0)
        found[op_dir.name] = numbers
        printed[op_dir.name] = units
    if workload == "reference_simulate":
        import scatterlab as sl

        last = sl.load_trajectory(out / "simulate" / "trajectory.bin").snapshots[-1]
        found["simulate"].update(_strided("final.u", last.u.samples))
        found["simulate"].update(_strided("final.v", last.v.samples))
        found["simulate"]["final.t"] = [last.t]
    elif workload == "decoupled_replay" and kept:
        replay = found["replay"]
        replay.update(_strided("final.u", kept["final"].u.samples))
        replay.update(_strided("final.v", kept["final"].v.samples))
        for name, est in zip("uv", kept["estimates"]):
            for fit in ("fit_linf", "fit_h0n"):
                value = getattr(est, fit, None) if est is not None else None
                replay[f"{name}.{fit}.exponent"] = [value.exponent if value is not None else math.nan]
    return found, printed


def deviation(got: list[float], want: list[float], floor: float = 0.0) -> float:
    """Largest |got - want| over the column, relative to the larger of the
    column's largest anchor magnitude and `floor`; NaN must sit where the
    anchor has NaN."""
    if len(got) != len(want):
        return math.inf
    scale = floor
    worst = 0.0
    for a, b in zip(got, want):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return math.inf
            continue
        scale = max(scale, abs(b))
        worst = max(worst, abs(a - b))
    return worst / scale if scale > 0 else worst


def _anchored(values: list) -> list[float]:
    return [math.nan if v is None else v for v in values]


def _largest(values: list) -> float:
    return max((abs(v) for v in values if v is not None and not math.isnan(v)), default=0.0)


def field_magnitude(anchor: dict) -> float:
    """Largest u_linf/v_linf anchored in any operation of the workload."""
    return max(
        (
            _largest(values)
            for numbers in anchor["ops"].values()
            for key, values in numbers.items()
            if key.endswith((":u_linf", ":v_linf"))
        ),
        default=0.0,
    )


def compare(op: str, got: dict[str, list[float]], anchor: dict, printed: dict[str, float] | None = None) -> float:
    """Largest deviation of one operation's outputs from the anchor (see
    TOLERANCE); `printed` maps text-parsed columns to their resolution."""
    want = anchor["ops"].get(op)
    if want is None or set(want) != set(got):
        return math.inf
    floor = FIELD_FLOOR * field_magnitude(anchor)
    worst = 0.0
    for key, values in got.items():
        source = FIT_SOURCE.get(key)
        if source in want and _largest(want[source]) < floor:
            continue  # a rate fitted to round-off: its series is checked instead
        text_floor = PRINTED_UNITS * (printed or {}).get(key, 0.0) / TOLERANCE
        worst = max(worst, deviation(values, _anchored(want[key]), max(floor, text_floor)))
    return worst


def anchor_file(workload: str, scale: str) -> Path:
    return ANCHORS / scale / f"{workload}.json"


def write_anchor(workload: str, scale: str, found: dict) -> None:
    clean = {
        op: {k: [None if math.isnan(v) else v for v in vals] for k, vals in numbers.items()}
        for op, numbers in found.items()
    }
    path = anchor_file(workload, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "scale": scale, "ops": clean}, indent=1) + "\n")


def judge(workload, out, status, kept, anchor):
    """Final verdict per operation: failure text or None, and the anchor
    deviation of the iteration (inf when outputs cannot be compared)."""
    verdict = dict(status)
    worst = 0.0
    try:
        found, printed = outputs(workload, out, kept)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {op: verdict[op] or f"outputs unreadable: {exc}" for op in verdict}, math.inf
    for op in verdict:
        dev = compare(op, found.get(op, {}), anchor, printed.get(op))
        worst = max(worst, dev)
        if verdict[op] is None and any("[FAIL]" in p.read_text() for p in (out / op).glob("*_report.txt")):
            verdict[op] = "report has a [FAIL] line"
        if verdict[op] is None and not dev <= TOLERANCE:
            verdict[op] = f"anchor deviation {dev:.3e} > {TOLERANCE:.0e}"
    return verdict, worst


def run(args) -> dict:
    """Set up, run one iteration (traced with --trace 1) and check it."""
    set_up = setup(args.workload, args.scale, args.work)
    out = args.work / f"iter-{args.index}"
    out.mkdir()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        wall, status, kept = iterate(args.workload, args.scale, args.work, out, args.seed)
    finally:
        if tracer:
            tracer.uninstall()
    # before the output check below reloads files into this process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    path = anchor_file(args.workload, args.scale)
    if args.record:
        write_anchor(args.workload, args.scale, outputs(args.workload, out, kept)[0])
    if not path.is_file():
        raise HarnessError(f"no anchor recorded at {path}")
    verdict, dev = judge(args.workload, out, status, kept, json.loads(path.read_text()))
    shutil.rmtree(out)
    layers = None
    if tracer:
        layers = layer_metrics(tracer.spans)
        trace_out = HERE / "out" / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "wall_s": wall, "spans": tracer.dump()}
        trace_out.write_text(json.dumps(record))
    return {
        "setup_s": set_up,
        "wall_s": wall,
        "attempted": len(verdict),
        "failures": [f"{op}: {why}" for op, why in verdict.items() if why],
        "anchor_dev": dev if math.isfinite(dev) else None,
        "tolerance": TOLERANCE,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.mode == "prepare":
            prepare(args.workload, args.scale, args.work)
        elif args.mode == "setup":
            print(json.dumps({"setup_s": setup(args.workload, args.scale, args.work)}))
        else:
            args.result.write_text(json.dumps(run(args)))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
