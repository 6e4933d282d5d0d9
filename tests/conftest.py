"""Shared fixtures: the handful of production-size runs the suite reuses."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ASYM_T_END = 256.0


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """The lane worker of `spectral._two_lanes`, which the analysis and the
    ray pass share, lives only for a call; the stepping kernel starts no
    thread."""
    before = threading.enumerate()
    yield
    after = threading.enumerate()
    assert len(after) <= len(before), "threads outlived the test: " + ", ".join(
        t.name for t in after if t not in before
    )


@pytest.fixture(scope="session")
def main_traj() -> sl.Trajectory:
    """Reference coupled run, as configs/reference.cfg sets it: eps = 0.1
    Gaussians to t = 200 on the big box."""
    cfg = sl.parse_config(CONFIGS / "reference.cfg")
    _, params, u1, v1 = sl.build_experiment(cfg)
    schedule = sl.geometric_schedule(cfg.t_end, cfg.schedule_ratio)
    return sl.evolve(sl.PairState(u1, v1, 1.0), cfg.t_end, cfg.dt, schedule, params)


@pytest.fixture(scope="session")
def main_analysis(main_traj) -> sl.scattering.TrajectoryAnalysis:
    return sl.analyze_trajectory(main_traj, with_asymptotic=False)


@pytest.fixture(scope="session")
def asym_traj() -> sl.Trajectory:
    """Slightly wider data run to t = 256 for the closed-form comparison."""
    grid = sl.Grid1D(L=2400.0, N=2**15)
    u1, v1 = sl.initial_pair(grid, "gaussian", 0.1, 3.5)
    params = sl.AnalysisParams.make(epsilon=0.1)
    schedule = sl.geometric_schedule(ASYM_T_END)
    return sl.evolve(sl.PairState(u1, v1, 1.0), ASYM_T_END, 0.05, schedule, params)


@pytest.fixture(scope="session")
def richardson_traj() -> sl.Trajectory:
    """Fine-snapshot run (ratio 2^(1/8)) for snapshot-halving studies."""
    grid = sl.Grid1D(L=560.0, N=4096)
    u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 3.0)
    params = sl.AnalysisParams.make(epsilon=0.2)
    schedule = sl.geometric_schedule(16.0, ratio=2.0**0.125)
    return sl.evolve(sl.PairState(u1, v1, 1.0), 16.0, 0.004, schedule, params)


@pytest.fixture(scope="session")
def linear_traj() -> sl.Trajectory:
    """Decoupled case (v = 0): snapshots are exact free evolutions of u1, so
    every phase correction is trivially 1 and the profile is static."""
    grid = sl.Grid1D(L=2100.0, N=2**18)
    u1 = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
    zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
    params = sl.AnalysisParams.make(epsilon=1.0)
    snaps = []
    for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]:
        u = sl.free_evolve(u1, t - 1.0)
        snaps.append(sl.PairState(u, zero, t))
    return sl.Trajectory(grid=grid, params=params, snapshots=tuple(snaps), dt=float("nan"))


def coarsen(traj: sl.Trajectory) -> sl.Trajectory:
    """Every-other-snapshot view of a trajectory (same solve)."""
    return sl.Trajectory(
        grid=traj.grid, params=traj.params, snapshots=traj.snapshots[::2], dt=traj.dt
    )
