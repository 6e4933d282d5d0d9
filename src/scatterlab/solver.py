"""
Strang split-step integration of the coupled cubic system

    i u_t + u_xx = |v|^2 u,      i v_t + v_xx = |u|^2 v,

from data at t = 1, with snapshot capture on a geometric time schedule.
Each substep conserves both masses exactly, so mass drift over a run measures
pure roundoff.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np
from scipy.fft import fft, fftfreq, ifft

from .spectral import (
    PHYSICAL,
    AnalysisParams,
    ComplexField,
    Grid1D,
    fourier_forward,
    norm_L2,
    require_same_grid,
)

DEFAULT_SCHEDULE_RATIO = 2.0**0.25

# thresholds of the domain sizing rule and the in-flight wrap guard
SPECTRUM_FLOOR = 1e-12
EDGE_HARD_LIMIT = 1e-6


class BoundaryWrapError(RuntimeError):
    """Solution mass reached the periodic boundary; the run is invalid."""


class DomainSizingError(ValueError):
    """The grid cannot transport the data's frequency content to t_end."""


@dataclass(frozen=True)
class PairState:
    """State (u, v) of the coupled system at time t; both fields physical."""

    u: ComplexField
    v: ComplexField
    t: float

    def __post_init__(self) -> None:
        self.u.require_side(PHYSICAL)
        self.v.require_side(PHYSICAL)
        require_same_grid(self.u, self.v)

    @property
    def grid(self) -> Grid1D:
        return self.u.grid

    def masses(self) -> tuple[float, float]:
        return norm_L2(self.u) ** 2, norm_L2(self.v) ** 2


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run plus the solver metadata needed downstream."""

    grid: Grid1D
    params: AnalysisParams
    snapshots: tuple[PairState, ...]
    dt: float

    def __post_init__(self) -> None:
        times = self.times
        if len(times) == 0:
            raise ValueError("trajectory needs at least one snapshot")
        if abs(times[0] - 1.0) > 1e-9:
            raise ValueError("first snapshot must sit at t = 1")
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def nonlinear_substep(state: PairState, dt: float) -> PairState:
    """
    Exact potential-only flow: both moduli are constant under it, so the
    rotation with moduli frozen at entry solves the substep exactly.
    """
    u = _rotate(state.u.samples, dt, np.abs(state.v.samples) ** 2)
    v = _rotate(state.v.samples, dt, np.abs(state.u.samples) ** 2)
    g = state.grid
    return PairState(ComplexField(g, u, PHYSICAL), ComplexField(g, v, PHYSICAL), state.t + dt)


def _half_multiplier(grid: Grid1D, dt: float) -> np.ndarray:
    # wrapped (fft-order) layout; diagonal multipliers need no shift phases
    xi = 2.0 * np.pi * fftfreq(grid.N, d=grid.dx)
    return np.exp(-0.5j * dt * xi**2)


def strang_step(state: PairState, dt: float) -> PairState:
    """One second-order step: half linear, exact nonlinear, half linear."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = state.grid
    u, v = _step_fields(state.u.samples, state.v.samples, g, [dt])
    return PairState(ComplexField(g, u, PHYSICAL), ComplexField(g, v, PHYSICAL), state.t + dt)


def _rotate(a: np.ndarray, h: float, m_other: np.ndarray) -> np.ndarray:
    """Potential flow of one field over time h under the other's frozen
    modulus m_other = |other|^2; bitwise a * np.exp(-1j * h * m_other)."""
    # numpy's complex product is not bitwise commutative, and its temporary
    # elision picks the operand order from this expression's form: the phase
    # factor must stay an unnamed temporary returned by a call, which numpy
    # elides as it does np.exp's result, for the order of a * np.exp(...)
    return a * _phase_factor(h, m_other)


def _phase_factor(h: float, m: np.ndarray) -> np.ndarray:
    """exp(-i h m) from the cosine and sine of the real angle: bitwise the
    complex exp of the purely imaginary argument, at about 2/3 of its cost."""
    e = np.empty(m.shape, dtype=np.complex128)
    angle = -h * m
    np.cos(angle, out=e.real)
    np.sin(angle, out=e.imag)
    return e


def _field_task(a: np.ndarray, h_prev: float | None, m_other: np.ndarray | None, mult: np.ndarray):
    """One field's share of a step: the previous step's rotation (none before
    the first step), the linear multiplier, and the field's own modulus for
    the other field's next rotation.  Transforms overwrite only buffers this
    task made: the input a of a segment's first step is the caller's."""
    if m_other is None:
        f = fft(a)
    else:
        f = fft(_rotate(a, h_prev, m_other), overwrite_x=True)
    f *= mult
    a = ifft(f, overwrite_x=True)
    return a, np.abs(a) ** 2


def _step_fields(u: np.ndarray, v: np.ndarray, grid: Grid1D, steps: Sequence[float]):
    """
    The stepping kernel: Strang steps of the given lengths with adjacent
    linear half-steps fused (the same operator as repeated strang_step).  The
    fields meet only through the moduli, so u advances on a worker thread and
    v on this one, joined once per step; each field sees a sequential loop's
    operations in order, so the output is bit-identical to it.
    """

    @cache
    def half(h: float) -> np.ndarray:
        return _half_multiplier(grid, h)

    @cache
    def fused(prev: float, h: float) -> np.ndarray:
        return half(prev) * half(h)

    mults = [half(steps[0]), *(fused(p, h) for p, h in zip(steps, steps[1:])), half(steps[-1])]
    mu = mv = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        for h_prev, mult in zip((None, *steps), mults):
            u_next = pool.submit(_field_task, u, h_prev, mv, mult)
            v, mv = _field_task(v, h_prev, mu, mult)
            u, mu = u_next.result()
    return u, v


def _run_segment(u: np.ndarray, v: np.ndarray, grid: Grid1D, t0: float, t1: float, dt: float):
    """
    March (u, v) from t0 to t1 with fixed steps dt plus one shortened final
    step.
    """
    span = t1 - t0
    if span <= 1e-14:
        return u, v
    n_full = int(np.floor(span / dt + 1e-12))
    rest = span - n_full * dt
    if rest < 1e-12 * max(1.0, t1):
        rest = 0.0
    steps = [dt] * n_full + ([rest] if rest > 0.0 else [])
    if not steps:
        return u, v
    return _step_fields(u, v, grid, steps)


def _check_edges(u: np.ndarray, v: np.ndarray, t: float) -> None:
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)))
    if scale == 0.0:
        return
    edge = max(abs(u[0]), abs(u[-1]), abs(v[0]), abs(v[-1]))
    if edge > EDGE_HARD_LIMIT * scale:
        raise BoundaryWrapError(
            f"boundary amplitude {edge:.3e} exceeds {EDGE_HARD_LIMIT:.0e} of the "
            f"solution scale {scale:.3e} at t = {t:.6g}; the periodic box has "
            f"wrapped and all scattering analysis is invalid"
        )


def evolve(
    initial: PairState,
    t_end: float,
    dt: float,
    schedule: Sequence[float],
    params: AnalysisParams,
    check_domain: bool = True,
) -> Trajectory:
    """
    Integrate from t = 1, landing exactly on every requested snapshot time.
    Raises BoundaryWrapError if solution mass reaches the box edge and
    DomainSizingError when the grid cannot support the horizon.
    """
    if abs(initial.t - 1.0) > 1e-12:
        raise ValueError("initial state must sit at t = 1")
    if t_end <= 1.0:
        raise ValueError("t_end must exceed 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    times = np.unique(np.concatenate([[1.0], np.asarray(schedule, dtype=float)]))
    if times[0] < 1.0 or times[-1] > t_end * (1 + 1e-12):
        raise ValueError("schedule must lie inside [1, t_end]")
    if check_domain:
        check_domain_for_horizon(initial.u, initial.v, t_end)

    grid = initial.grid
    u = initial.u.samples.copy()
    v = initial.v.samples.copy()
    snapshots = [PairState(ComplexField(grid, u, PHYSICAL), ComplexField(grid, v, PHYSICAL), 1.0)]
    _check_edges(u, v, 1.0)
    t_prev = 1.0
    for t_next in times[1:]:
        u, v = _run_segment(u, v, grid, t_prev, t_next, dt)
        _check_edges(u, v, t_next)
        snapshots.append(
            PairState(ComplexField(grid, u, PHYSICAL), ComplexField(grid, v, PHYSICAL), float(t_next))
        )
        t_prev = float(t_next)
    return Trajectory(grid=grid, params=params, snapshots=tuple(snapshots), dt=dt)


def geometric_schedule(t_end: float, ratio: float = DEFAULT_SCHEDULE_RATIO) -> np.ndarray:
    """Snapshot times 1, r, r^2, ... capped with t_end itself."""
    if t_end <= 1.0:
        raise ValueError("t_end must exceed 1")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    times = [1.0]
    while times[-1] * ratio < t_end * (1 - 1e-12):
        times.append(times[-1] * ratio)
    times.append(float(t_end))
    return np.array(times)


def resolved_bandwidth(field: ComplexField, floor: float = SPECTRUM_FLOOR) -> float:
    """Largest |xi| whose spectral amplitude still exceeds floor * peak."""
    spec = fourier_forward(field) if field.side == PHYSICAL else field
    mag = np.abs(spec.samples)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    mask = mag > floor * peak
    return float(np.max(np.abs(spec.grid.xi[mask])))


def support_halfwidth(field: ComplexField, floor: float = SPECTRUM_FLOOR) -> float:
    """Largest |x| whose amplitude still exceeds floor * peak."""
    field.require_side(PHYSICAL)
    mag = np.abs(field.samples)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    mask = mag > floor * peak
    return float(np.max(np.abs(field.grid.x[mask])))


def check_domain_for_horizon(u1: ComplexField, v1: ComplexField, t_end: float) -> None:
    """
    Domain sizing rule: frequency-xi content travels to x ~ 2*xi*t, so the box
    must satisfy L >= 4 * xi_max * t_end + L_data to keep mass off the edge.
    """
    grid = require_same_grid(u1, v1)
    xi_max = max(resolved_bandwidth(u1), resolved_bandwidth(v1))
    l_data = 2.0 * max(support_halfwidth(u1), support_halfwidth(v1))
    required = 4.0 * xi_max * t_end + l_data
    if grid.L < required:
        raise DomainSizingError(
            f"domain L = {grid.L:.6g} is below the sizing rule "
            f"4*xi_max*t_end + L_data = {required:.6g} "
            f"(xi_max = {xi_max:.4g}, t_end = {t_end:.6g}); enlarge L or shorten the run"
        )


def initial_pair(
    grid: Grid1D,
    shape: str,
    epsilon: float,
    width: float,
    carrier: float = 0.0,
) -> tuple[ComplexField, ComplexField]:
    """
    Initial-data catalogue.  The second component is launched at 3/4 of the
    amplitude (and opposite carrier for the modulated shape) so the pair is
    genuinely asymmetric under exchange.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid.x
    if shape == "gaussian":
        env = np.exp(-(x**2) / (2.0 * width**2))
        u = epsilon * env
        v = 0.75 * epsilon * env
    elif shape == "sech":
        env = 1.0 / np.cosh(x / width)
        u = epsilon * env
        v = 0.75 * epsilon * env
    elif shape == "modulated":
        env = np.exp(-(x**2) / (2.0 * width**2))
        u = epsilon * env * np.exp(1j * carrier * x)
        v = 0.75 * epsilon * env * np.exp(-1j * carrier * x)
    else:
        raise ValueError(f"unknown data shape {shape!r}")
    return ComplexField(grid, u, PHYSICAL), ComplexField(grid, v, PHYSICAL)
