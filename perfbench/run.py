"""
scatterlab benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|smoke] [--record-anchor]

Run from anywhere inside a checkout; the program is the checkout's src/.
Workloads (why each was chosen: BENCHMARK.json):

  reference_simulate  `scatterlab simulate` on configs/reference.cfg
  decoupled_replay    load + ray analysis + CSV of the saved v = 0 trajectory
  quick_sweep         all five commands on configs/quick.cfg, --seed <n>

Each iteration runs the whole workload in a fresh process (so every one
pays the start-up a user of the CLI pays, and samples a fresh memory layout)
with BLAS/OpenMP threads pinned to 1.  Iterations repeat (at least twice)
while another is expected to end within --seconds, and every output is
checked against the anchor in anchors/<scale>/<workload>.json.  With
--trace 0 the last stdout line gives wall_s (median per iteration), setup_s
(median of at least five set-ups, one per iteration plus set-up-only
processes) and peak_rss_mb (median over the iteration processes).  With
--trace 1 it gives the per-layer metrics of one traced iteration, run after
--seconds/2 of untraced iterations, and the spans go to
out/trace-<workload>-<scale>-seed<n>.json.  Lines before the last one repeat
the end-to-end metrics with units, plus anchor_dev and fail_ratio.

--scale smoke shrinks every grid for the benchmark's own tests;
--record-anchor rewrites the anchor from this run's first iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("reference_simulate", "decoupled_replay", "quick_sweep")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# set-ups behind setup_s: one per iteration, topped up by set-up-only runs
SETUPS = 5

# every process of a run must end by this many seconds after start
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _child(args: list[str], env: dict, deadline: float, capture: bool = False) -> str:
    """Run workload.py in a fresh interpreter; its stdout goes to our stderr
    unless captured.  subprocess.run kills and reaps it on timeout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else sys.stderr,
            timeout=remaining,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process {args[0]} exited with code {proc.returncode}")
    return proc.stdout or ""


def measure(opts) -> dict:
    """Run the workload's iterations, each in a fresh process, and gather
    their results."""
    if not (ROOT / "src" / "scatterlab" / "__init__.py").is_file():
        raise BenchError(f"no scatterlab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    work = HERE / "out" / f"work-{opts.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", opts.workload, "--scale", opts.scale, "--work", str(work)]

    def iteration(index: int, trace: int) -> dict:
        result = work / f"result-{index}.json"
        args = ["run", *common, "--seed", str(opts.seed), "--index", str(index), "--trace", str(trace)]
        if opts.record_anchor and index == 0:
            args.append("--record")
        _child([*args, "--result", str(result)], env, deadline)
        return json.loads(result.read_text())

    # At least two iterations give wall_s a median; then start another only
    # while it is expected to end within the budget.  The traced pass needs
    # just one untraced iteration for its overhead estimate.
    budget = opts.seconds / 2.0 if opts.trace else float(opts.seconds)
    fewest = 1 if opts.trace else 2
    try:
        _child(["prepare", *common], env, deadline)
        runs, spent = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            runs.append(iteration(len(runs), 0))
            spent.append(time.monotonic() - began)
            if len(runs) >= fewest and time.monotonic() - start + statistics.median(spent) > budget:
                break
        setups = [r["setup_s"] for r in runs]
        traced = iteration(len(runs), 1) if opts.trace else None
        while not opts.trace and len(setups) < SETUPS:
            setups.append(json.loads(_child(["setup", *common], env, deadline, capture=True))["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    done = runs + ([traced] if traced else [])
    devs = [r["anchor_dev"] for r in done]
    return {
        "walls": [r["wall_s"] for r in runs],
        "setups": setups,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "attempted": sum(r["attempted"] for r in done),
        "failures": [f"iteration {i} {f}" for i, r in enumerate(done) for f in r["failures"]],
        "anchor_dev": None if None in devs else max(devs),
        "tolerance": runs[0]["tolerance"],
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--record-anchor", action="store_true")
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = measure(opts)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = result["attempted"]
    failed = len(result["failures"])
    walls = result["walls"]
    setups = result["setups"]
    dev = result["anchor_dev"]
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    print(f"perfbench {opts.workload} scale={opts.scale} seed={opts.seed} seconds={opts.seconds} trace={opts.trace}")
    print(f"  processes: one per iteration, {threads}")
    print(
        f"  wall_s       {statistics.median(walls):.4f} s   median of {len(walls)} untraced iterations"
        " (one process each):"
        f" {' '.join(f'{w:.3f}' for w in walls)}"
    )
    if not opts.trace:
        print(f"  setup_s      {statistics.median(setups):.4f} s   median of {len(setups)} set-ups")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(
        f"  anchor_dev   {'inf' if dev is None else f'{dev:.3e}'}   max deviation from the anchor,"
        f" relative to each column's scale (tolerance {result['tolerance']:.0e})"
    )
    print(f"  fail_ratio   {failed / attempted:.4f}   {failed} failed / {attempted} attempted operations")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")

    if opts.trace:
        traced = result["traced"]
        layers = {
            **traced["layers"],
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": statistics.median(walls),
            "trace.overhead_s": traced["wall_s"] - statistics.median(walls),
        }
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
