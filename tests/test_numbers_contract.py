"""The numbers contract: every output number of the three benchmark workloads
agrees with its anchor in perfbench/anchors/full to BOUND of its column's
scale, by the benchmark's own comparison rule (perfbench/workload.compare).
The reference solve is only accurate to about 5e-8, so a rewrite that keeps
the numbers moves them by round-off, far below BOUND.  The anchors are
re-recorded only by a change to the benchmark alone, which states how far
the numbers moved."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import scatterlab as sl
from scatterlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BOUND = 1e-10
SEED = 5


@pytest.fixture(scope="module")
def workload():
    """perfbench/workload.py, imported by its path; perfbench/ is on sys.path
    only for the import, which loads its sibling tracing module."""
    spec = importlib.util.spec_from_file_location("perfbench_workload", PERFBENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def run_commands(workload, name, out):
    """The workload's CLI commands in this process, each into out/<command>."""
    config = workload.config_path(name, "full", out)
    for command in workload.COMMANDS[name]:
        argv = [command, "--config", str(config), "--outdir", str(out / command), "--seed", str(SEED)]
        assert cli.main(argv) == 0, command


def run_replay(traj, out):
    """The decoupled replay's analysis, on the trajectory it loads."""
    (out / "replay").mkdir()
    analysis = sl.analyze_trajectory(traj)
    sl.write_snapshot_csv(out / "replay" / "snapshots.csv", analysis)
    return {"final": traj.snapshots[-1], "estimates": (analysis.est_u, analysis.est_v)}


@pytest.mark.parametrize("name", ["quick_sweep", "reference_simulate", "decoupled_replay"])
def test_outputs_match_anchors(name, workload, tmp_path, request):
    if name == "decoupled_replay":
        kept = run_replay(request.getfixturevalue("linear_traj"), tmp_path)
    else:
        run_commands(workload, name, tmp_path)
        kept = {}
    found, printed = workload.outputs(name, tmp_path, kept)
    anchor = json.loads(workload.anchor_file(name, "full").read_text())
    assert set(found) == set(anchor["ops"])
    deviations = {op: workload.compare(op, numbers, anchor, printed[op]) for op, numbers in found.items()}
    # NaN fails too
    beyond = [f"{op}: {dev:.3e}" for op, dev in deviations.items() if not dev <= BOUND]
    assert not beyond, ", ".join(beyond)
