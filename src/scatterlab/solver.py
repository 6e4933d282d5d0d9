"""
Strang split-step integration of the coupled cubic system

    i u_t + u_xx = |v|^2 u,      i v_t + v_xx = |u|^2 v,

from data at t = 1, with snapshot capture on a geometric time schedule.
Each substep conserves both masses exactly, so mass drift over a run measures
pure roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .spectral import (
    PHYSICAL,
    SPECTRAL,
    AnalysisParams,
    ComplexField,
    Grid1D,
    _cis,
    fourier_forward,
    fourier_inverse,
    next_fast_len,
    norm_L2,
    require_same_grid,
)

DEFAULT_SCHEDULE_RATIO = 2.0**0.25

# thresholds of the domain sizing rule, the in-flight wrap guard and the
# band-edge guard (spectral amplitude in the outer tenth of a band)
SPECTRUM_FLOOR = 1e-12
EDGE_HARD_LIMIT = 1e-6
BAND_EDGE_LIMIT = 1e-10


class BoundaryWrapError(RuntimeError):
    """Solution mass reached the periodic boundary; the run is invalid."""


class BandEdgeError(RuntimeError):
    """Spectral content reached the edge of the configured band; the run is
    invalid."""


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
        if not np.all(np.isfinite(times)):
            raise ValueError("snapshot times must be finite")
        if abs(times[0] - 1.0) > 1e-9:
            raise ValueError("first snapshot must sit at t = 1")
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


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


def _rotate(
    a: np.ndarray, h: float, m_other: np.ndarray, out: np.ndarray, angle: np.ndarray
) -> np.ndarray:
    """Potential flow of a field (or of each row of a block) over time h
    under the other's frozen modulus m_other = |other|^2, written into out,
    with angle as scratch for -h * m_other: np.multiply(a, _cis(angle))."""
    np.multiply(m_other, -h, out=angle)
    return np.multiply(a, _cis(angle, out), out=out)


def _step_fields(u: np.ndarray, v: np.ndarray, grid: Grid1D, steps: Sequence[float]):
    """
    The stepping kernel: Strang steps of the given lengths with adjacent
    linear half-steps fused (the same operator as repeated strang_step).

    u and v are the two rows of one (2, n) block, stepped on the calling
    thread: each step rotates the block by its swapped moduli from the
    previous step (none before the first) into the free buffer of a
    [buffer, field] workspace, transforms it there in place along its rows,
    multiplies by the fused linear factor and publishes the moduli.  Each
    row sees a per-field sequential loop's operations in order, so the
    output (two rows of the workspace) is bit-identical to it; the caller's
    arrays are only read.
    """

    @cache
    def half(h: float) -> np.ndarray:
        return _half_multiplier(grid, h)

    @cache
    def fused(prev: float, h: float) -> np.ndarray:
        return half(prev) * half(h)

    mults = [half(steps[0]), *(fused(p, h) for p, h in zip(steps, steps[1:])), half(steps[-1])]
    n = grid.N
    work = np.empty((2, 2, n), np.complex128)  # [buffer, field]
    angle = np.empty((2, n))
    moduli = np.empty((2, n))
    f = work[0]
    f[0], f[1] = u, v
    for k, mult in enumerate(mults):
        if k:
            f = _rotate(f, steps[k - 1], moduli[::-1], work[k % 2], angle)
        f = fft(f, out=f)
        f *= mult
        f = ifft(f, out=f)
        if k < len(steps):
            np.square(np.abs(f, out=moduli), out=moduli)
    return f[0], f[1]


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


def _band_edge(spectrum: np.ndarray) -> float:
    """Largest amplitude in the outer tenth of the band, |xi| >= 0.9 times
    the Nyquist frequency, relative to the peak (0 for a zero spectrum)."""
    mag = np.abs(spectrum)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    w = max(1, spectrum.size // 20)
    return max(float(np.max(mag[:w])), float(np.max(mag[-w:]))) / peak


def _solve_size(spectra: Sequence[np.ndarray], grid: Grid1D) -> int:
    """
    Points of the solve grid: the smallest even fast length whose Nyquist
    frequency is at least twice the spectra's extent xi_max, so the aliases
    of the cubic terms (band <= 3 xi_max) fold outside the resolved band
    (Orszag's rule), at least 8 and at most grid.N.  xi_max = k dxi, so
    L xi_max / pi is 2k.
    """
    k = round(max(_extent(s, grid.xi) for s in spectra) / grid.dxi)
    return min(grid.N, max(8, 2 * next_fast_len(2 * k)))


def _resample(spectrum: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Physical samples on grid of a spectrum (monotone order, same L) cut to
    its centred grid.N frequencies or zero-padded to them."""
    n, m = spectrum.size, grid.N
    if m <= n:
        cut = spectrum[(n - m) // 2 : (n + m) // 2]
    else:
        cut = np.zeros(m, np.complex128)
        cut[(m - n) // 2 : (m + n) // 2] = spectrum
        cut.flags.writeable = False  # fresh: the field keeps it
    return fourier_inverse(ComplexField(grid, cut, SPECTRAL)).samples


def evolve(
    initial: PairState,
    t_end: float,
    dt: float,
    schedule: Sequence[float],
    params: AnalysisParams,
) -> Trajectory:
    """
    Integrate from t = 1, landing exactly on every requested snapshot time.

    The steps run on a solve grid with the same L and `_solve_size` points
    (Nyquist >= 2 xi_max of the initial spectra): 3840 instead of 2^15 for
    `configs/reference.cfg`, 756 instead of 4096 for `configs/quick.cfg`.
    The initial data are restricted to it by the centred slice of their
    spectra, and each snapshot is prolonged to the configured grid by
    zero-padding its solve-grid spectrum, so every snapshot lives on
    initial.grid.  Measured against stepping on the configured grid, every
    snapshot of the reference run agrees within 1.7e-12 of its peak (quick
    8.5e-13).  After each segment the solve-grid spectra are checked: when
    the outer tenth of the band of u or v holds more than BAND_EDGE_LIMIT
    of its peak, the segment is redone from its starting state on a grid
    twice as large (at most the configured one), and there BandEdgeError is
    raised.  Raises BoundaryWrapError if solution mass reaches the box edge
    and DomainSizingError when the grid cannot support the horizon.
    """
    if abs(initial.t - 1.0) > 1e-12:
        raise ValueError("initial state must sit at t = 1")
    if not t_end > 1.0:
        raise ValueError("t_end must exceed 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    schedule = np.asarray(schedule, dtype=float)
    if not np.all(np.isfinite(schedule)):
        raise ValueError(f"schedule entries must be finite, got {schedule.tolist()}")
    times = np.array(sorted({1.0, *schedule.tolist()}))
    if times[0] < 1.0 or times[-1] > t_end * (1 + 1e-12):
        raise ValueError("schedule must lie inside [1, t_end]")
    check_domain_for_horizon(initial.u, initial.v, t_end)

    grid = initial.grid
    # spectra of the current segment's starting state, on the grid it sits on
    spectra = [fourier_forward(f).samples for f in (initial.u, initial.v)]
    solve = Grid1D(grid.L, _solve_size(spectra, grid))
    u, v = (_resample(s, solve) for s in spectra)
    snapshots = [PairState(initial.u, initial.v, 1.0)]
    _check_edges(initial.u.samples, initial.v.samples, 1.0)
    t_prev = 1.0
    for t_next in times[1:]:
        while True:
            ends = _run_segment(u, v, solve, t_prev, t_next, dt)
            ends_hat = [fourier_forward(ComplexField(solve, f, PHYSICAL)).samples for f in ends]
            edge = max(_band_edge(s) for s in ends_hat)
            if edge <= BAND_EDGE_LIMIT:
                break
            if solve.N == grid.N:
                raise BandEdgeError(
                    f"band-edge amplitude {edge:.3e} of the peak exceeds "
                    f"{BAND_EDGE_LIMIT:.0e} at t = {t_next:.6g} on the configured "
                    f"grid N = {grid.N}; enlarge N or shrink the data"
                )
            solve = Grid1D(grid.L, min(2 * solve.N, grid.N))
            u, v = (_resample(s, solve) for s in spectra)
        (u, v), spectra = ends, ends_hat
        pu, pv = (_resample(s, grid) for s in spectra)
        _check_edges(pu, pv, t_next)
        snapshots.append(
            PairState(ComplexField(grid, pu, PHYSICAL), ComplexField(grid, pv, PHYSICAL), float(t_next))
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


def _extent(samples: np.ndarray, coord: np.ndarray, floor: float = SPECTRUM_FLOOR) -> float:
    """Largest |coord| whose amplitude still exceeds floor * peak."""
    mag = np.abs(samples)
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    return float(np.max(np.abs(coord[mag > floor * peak])))


def check_domain_for_horizon(u1: ComplexField, v1: ComplexField, t_end: float) -> None:
    """
    Domain sizing rule: frequency-xi content travels to x ~ 2*xi*t, so the box
    must satisfy L >= 4 * xi_max * t_end + L_data to keep mass off the edge.
    The grid must also resolve the data: the outer tenth of the band may hold
    at most BAND_EDGE_LIMIT of each initial spectrum's peak.
    """
    grid = require_same_grid(u1, v1)
    spectra = [fourier_forward(f).samples for f in (u1, v1)]
    xi_max = max(_extent(s, grid.xi) for s in spectra)
    l_data = 2.0 * max(_extent(f.samples, grid.x) for f in (u1, v1))
    required = 4.0 * xi_max * t_end + l_data
    if grid.L < required:
        raise DomainSizingError(
            f"domain L = {grid.L:.6g} is below the sizing rule "
            f"4*xi_max*t_end + L_data = {required:.6g} "
            f"(xi_max = {xi_max:.4g}, t_end = {t_end:.6g}); enlarge L or shorten the run"
        )
    edge = max(_band_edge(s) for s in spectra)
    if edge > BAND_EDGE_LIMIT:
        raise DomainSizingError(
            f"grid N = {grid.N} does not resolve the data: the outer tenth of its "
            f"band holds {edge:.3e} of the initial spectra's peak, above "
            f"{BAND_EDGE_LIMIT:.0e}; enlarge N"
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
