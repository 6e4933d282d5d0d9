"""
Tests of the benchmark harness itself:

    python3 -m pytest perfbench/tests -q

They run the harness on shrunken grids (--scale smoke), plus two traced
runs of the real quick_sweep, and check the result schema, the exact counts'
repeatability, the anchor comparison and the refusal to run without sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
    )


def result(workload_name: str, seed: int, trace: int, scale: str = "smoke", seconds: int = 1) -> tuple[dict, str]:
    proc = bench(
        ROOT, "--workload", workload_name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last), proc.stdout


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workload.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    every = names + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in every)
    assert len(set(every)) == len(every)
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"]) for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(name):
    res, stdout = result(name, seed=3, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) and v["value"] > 0 for v in res["metrics"].values())
    for label in ("wall_s", "setup_s", "peak_rss_mb", "anchor_dev   0.000e+00", "fail_ratio   0.0000"):
        assert label in stdout
    assert "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1" in stdout


def _traced_counts(name: str, seed: int, scale: str) -> dict:
    res, _ = result(name, seed=seed, trace=1, scale=scale)
    assert res["correct"] is True
    assert list(res["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    return {k: res["metrics"][k]["value"] for k in tracing.EXACT}


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_smoke_traced_counts_repeat_exactly(name):
    assert _traced_counts(name, 1, "smoke") == _traced_counts(name, 2, "smoke")


def test_quick_sweep_traced_counts_repeat_exactly():
    first = _traced_counts("quick_sweep", 5, "full")
    assert first["solver.evolve_calls"] > 0 and first["remainder.profile_spectra_calls"] > 0
    assert first == _traced_counts("quick_sweep", 6, "full")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "quick_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_anchor_deviation_is_relative_to_the_column():
    assert workload.deviation([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert workload.deviation([1.0, 2.1], [1.0, 2.0]) == pytest.approx(0.05)
    assert workload.deviation([1.0, math.nan], [1.0, math.nan]) == 0.0
    assert workload.deviation([1.0, math.nan], [1.0, 2.0]) == math.inf
    assert workload.deviation([1.0], [1.0, 2.0]) == math.inf
    anchor = {"ops": {"op": {"a": [1.0, None]}}}
    assert workload.compare("op", {"a": [1.0, math.nan]}, anchor) == 0.0
    assert workload.compare("op", {"a": [1.0, math.nan], "b": [0.0]}, anchor) == math.inf


def _full_anchor(name: str) -> dict:
    return json.loads(workload.anchor_file(name, "full").read_text())


def _shifted(values: list, delta: float) -> list[float]:
    return [math.nan if v is None else v + delta for v in values]


def test_round_off_columns_are_held_to_the_field_floor():
    anchor = _full_anchor("decoupled_replay")
    want = anchor["ops"]["replay"]
    got = {k: [math.nan if v is None else v for v in vals] for k, vals in want.items()}
    assert workload.compare("replay", got, anchor) == 0.0
    # round-off of a numerically equivalent rewrite: the limit differences
    # move by 1e-14 and the rates fitted to them move arbitrarily
    noisy = dict(got)
    for key in ("snapshots.csv:wf_limit_diff_linf", "snapshots.csv:wf_limit_diff_h0n", "final.v.re"):
        noisy[key] = _shifted(want[key], 1e-14)
    noisy["u.fit_linf.exponent"] = [0.5]
    noisy["u.fit_h0n.exponent"] = [math.nan]
    assert workload.compare("replay", noisy, anchor) <= workload.TOLERANCE
    # a limit difference that leaves round-off, or a changed field, fails
    wrong = dict(got, **{"snapshots.csv:wf_limit_diff_linf": _shifted(want["snapshots.csv:wf_limit_diff_linf"], 1e-6)})
    assert workload.compare("replay", wrong, anchor) > workload.TOLERANCE
    wrong = dict(got, **{"snapshots.csv:u_linf": _shifted(want["snapshots.csv:u_linf"], 1e-5)})
    assert workload.compare("replay", wrong, anchor) > workload.TOLERANCE


def test_rates_of_real_series_are_still_compared():
    anchor = {"ops": {"op": {"snapshots.csv:u_linf": [1.0], "snapshots.csv:wf_limit_diff_linf": [0.1],
                             "u.fit_linf.exponent": [0.75]}}}
    got = {"snapshots.csv:u_linf": [1.0], "snapshots.csv:wf_limit_diff_linf": [0.1], "u.fit_linf.exponent": [0.76]}
    assert workload.compare("op", got, anchor) > workload.TOLERANCE


def test_printed_exponents_may_flip_their_last_digit():
    anchor = _full_anchor("quick_sweep")
    want = anchor["ops"]["decay"]
    got = {k: [math.nan if v is None else v for v in vals] for k, vals in want.items()}
    key = "decay_report.txt:exponent"
    got[key] = [want[key][0] + 1e-4, want[key][1]]
    units = {key: 1e-4}
    assert workload.compare("decay", got, anchor, units) <= workload.TOLERANCE
    got[key] = [want[key][0] + 3e-4, want[key][1]]
    assert workload.compare("decay", got, anchor, units) > workload.TOLERANCE


def test_nominal_steps_follow_the_fixed_step_rule():
    assert tracing.nominal_steps(0.5, [1.0, 2.0, 3.0]) == 4
    # 0.3 = one whole step of 0.2 plus a shortened one
    assert tracing.nominal_steps(0.2, [1.3]) == 2


def test_self_time_subtracts_direct_children_only():
    spans = []
    for name, start, end, parent in (("a.f", 0.0, 10.0, -1), ("b.g", 1.0, 4.0, 0), ("a.f", 2.0, 3.0, 1)):
        s = tracing.Span(name, parent)
        s.start, s.end = start, end
        spans.append(s)
    assert tracing.self_time(spans, 0) == pytest.approx(7.0)
    assert tracing.self_time(spans, 1) == pytest.approx(2.0)
    assert tracing._outermost(spans, {"a.f"}) == [0]
