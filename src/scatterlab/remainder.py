"""
Computable representations of the non-resonant remainder of the cubic
interaction, plus the decay and growth fits built on top of them.

Writing u = e^{is d_xx} f and v = e^{is d_xx} g, the spectral profile
equation reads  d_s fhat = -i e^{i s xi^2} F[|v|^2 u].  The stationary-phase
(resonant) part of that trilinear term is -(i/2) |ghat|^2 fhat / s under the
symmetric transform convention; the remainder

    R = i * (1/2) |ghat|^2 fhat / s  - i e^{i s xi^2} F[|v|^2 u]

decays faster than 1/s.  The 1/2 here is pinned by the O(N^3) quadrature
oracle below: any other coefficient leaves a 1/s tail in R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratefit import RateFit, fit_rate
from .spectral import (
    SPECTRAL,
    ComplexField,
    _SQRT_2PI,
    _cis,
    _two_lanes,
    fourier_forward,
    fourier_inverse,
    norm_H10_xi,
    norm_Linf,
    require_same_grid,
)

# coefficient of the resonant extraction; also the phase-correction rate
RESONANT_COEFF = 0.5

ORACLE_MAX_POINTS = 64

MIN_FIT_DECADES = 1.5  # the decay fit's shortest window, in decades of time


@dataclass(frozen=True)
class TrilinearInput:
    """Spectral profile pair (fhat, ghat) at time s >= 1 on a shared grid."""

    f_hat: ComplexField
    g_hat: ComplexField
    s: float

    def __post_init__(self) -> None:
        self.f_hat.require_side(SPECTRAL)
        self.g_hat.require_side(SPECTRAL)
        require_same_grid(self.f_hat, self.g_hat)
        if self.s < 1.0:
            raise ValueError("remainder analysis requires s >= 1")


def resonant_term(inp: TrilinearInput) -> ComplexField:
    """Pointwise part N(ghat, ghat, fhat) = i * RESONANT_COEFF * |ghat|^2 fhat."""
    vals = 1j * RESONANT_COEFF * np.abs(inp.g_hat.samples) ** 2 * inp.f_hat.samples
    return ComplexField(inp.f_hat.grid, vals, SPECTRAL)


def _trilinear_term(inp: TrilinearInput) -> np.ndarray:
    g = inp.f_hat.grid
    phase = np.exp(-1j * inp.s * g.xi**2)
    u = fourier_inverse(inp.f_hat.with_samples(inp.f_hat.samples * phase))
    v = fourier_inverse(inp.g_hat.with_samples(inp.g_hat.samples * phase))
    w = fourier_forward(u.with_samples(np.abs(v.samples) ** 2 * u.samples))
    return -1j * np.conj(phase) * w.samples


def remainder_physical(inp: TrilinearInput) -> ComplexField:
    """Production path: four transforms and pointwise products, O(N log N)."""
    vals = _trilinear_term(inp) + resonant_term(inp).samples / inp.s
    return ComplexField(inp.f_hat.grid, vals, SPECTRAL)


def remainder_split(inp: TrilinearInput) -> tuple[ComplexField, ComplexField]:
    """
    The (I, N) partition of the remainder: R = I + N/s, with I the transform
    term and N the pointwise resonant product.
    """
    g = inp.f_hat.grid
    i_term = ComplexField(g, _trilinear_term(inp), SPECTRAL)
    return i_term, resonant_term(inp)


def remainder_oracle(inp: TrilinearInput) -> ComplexField:
    """
    Brute-force quadrature of the oscillatory double integral

        R(s, xi) = -(i / 4 pi s) * integral (e^{-i a b / 2s} - 1)
                     * Fcheck(a, b) da db,

    with Fcheck reduced to a single x-integral.  O(N^3) work per call; test
    oracle only, capped at N <= 64.
    """
    grid = inp.f_hat.grid
    N = grid.N
    if N > ORACLE_MAX_POINTS:
        raise ValueError(f"remainder_oracle is limited to N <= {ORACLE_MAX_POINTS}")
    f = fourier_inverse(inp.f_hat).samples
    gph = fourier_inverse(inp.g_hat).samples
    x = grid.x
    dx = grid.dx
    # value-correct circular shift: x_j - x_k corresponds to index j - k + N/2
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :] + N // 2) % N
    f_shift = f[idx]  # [x, a] -> f(x - a)
    g_shift = gph[idx]  # [x, b] -> g(x - b)
    kernel = np.exp(-1j * np.outer(x, x) / (2.0 * inp.s)) - 1.0  # [a, b]
    rays = np.exp(1j * np.outer(x, grid.xi))  # [a or b, xi]
    out = np.empty(N, dtype=np.complex128)
    for i, q in enumerate(grid.xi):
        w = np.exp(-1j * x * q) * np.conj(gph)
        m = (f_shift * w[:, None]).T @ g_shift  # [a, b]
        f_check = (dx / _SQRT_2PI) * np.outer(rays[:, i], rays[:, i]) * m
        out[i] = (-1j / (4.0 * np.pi * inp.s)) * np.sum(kernel * f_check) * dx * dx
    return ComplexField(grid, out, SPECTRAL)


def _profile_rows(states, block: np.ndarray) -> None:
    """The profile formula, row by row: block[m] = e^{i t xi^2} (uhat, vhat) of states[m]."""
    for state, row in zip(states, block):
        back = _cis(state.t * state.grid.xi**2)
        for field, out in zip((state.u, state.v), row):
            np.multiply(fourier_forward(field).samples, back, out=out)


def profile_spectra(states) -> np.ndarray:
    """Spectral profiles of a sequence of states as one (len(states), 2, N)
    block: row m is (fhat, ghat) = e^{i t xi^2} (uhat, vhat) of states[m],
    filled by snapshot parity: even snapshots on this thread, odd ones on a worker."""
    block = np.empty((len(states), 2, states[0].grid.N), dtype=np.complex128)
    _two_lanes(_profile_rows, (states[::2], block[::2]), (states[1::2], block[1::2]))
    return block


@dataclass(frozen=True)
class RemainderDecayReport:
    """Decay fit of sup_xi |R(s)| plus its ratio to the norm product bound."""

    fit: RateFit | None
    times: np.ndarray
    sup_values: np.ndarray
    bound_ratios: np.ndarray
    vacuous: bool


def remainder_decay_fit(traj) -> RemainderDecayReport:
    """
    Fit the decay exponent of sup_xi |R(s)| along a trajectory and report the
    ratio of sup_xi |R| * s^{1+delta} to ||ghat||_{H^{1,0}}^2 ||fhat||_{H^{1,0}},
    whose stability across the run is the computable face of the decay bound.
    The fit is None on a run of fewer than MIN_FIT_DECADES decades of time.
    """
    times = traj.times
    sups = np.empty(len(times))
    ratios = np.empty(len(times))
    block = profile_spectra(traj.snapshots)
    block.flags.writeable = False  # the fields below keep its rows
    for m, (state, pair) in enumerate(zip(traj.snapshots, block)):
        inp = TrilinearInput(*(ComplexField(traj.grid, row, SPECTRAL) for row in pair), state.t)
        sups[m] = sup = norm_Linf(remainder_physical(inp))
        denom = norm_H10_xi(traj.grid, pair[1]) ** 2 * norm_H10_xi(traj.grid, pair[0])
        ratios[m] = sup * state.t ** (1.0 + traj.params.delta) / denom if denom > 0 else np.nan
    # R is cubic in the data, so its zero floor scales like |u| |v|^2: small
    # data keep their fit, and u = 0 or v = 0 (R = 0 exactly) stays vacuous
    u_max = max(norm_Linf(s.u) for s in traj.snapshots)
    v_max = max(norm_Linf(s.v) for s in traj.snapshots)
    if np.max(sups, initial=0.0) <= 1e-14 * u_max * v_max**2:
        return RemainderDecayReport(None, times, sups, ratios, vacuous=True)
    fit = fit_rate(times, sups) if times[-1] / times[0] >= 10.0**MIN_FIT_DECADES else None
    return RemainderDecayReport(fit, times, sups, ratios, vacuous=False)


def h10_growth_fit(traj, component: str = "u") -> RateFit:
    """Growth exponent of ||fhat(t)||_{H^{1,0}_xi} along the run (~ t^alpha),
    evaluated as ||f||_{H^{0,1}_x} of the physical profile."""
    if component not in ("u", "v"):
        raise ValueError("component must be 'u' or 'v'")
    rows = profile_spectra(traj.snapshots)[:, "uv".index(component)]
    return fit_rate(traj.times, [norm_H10_xi(traj.grid, row) for row in rows])


def odd_power_split_holds(n: int, xi: float, eta: float, sigma: float) -> bool:
    """
    Check |xi|^{2n+1} <= 3^{2n} (|xi-sigma|^{2n+1} + |xi-eta|^{2n+1}
    + |xi-sigma-eta|^{2n+1}).  The constant 3^{2n} is minimal: equality is
    approached at sigma = eta = 2*xi/3.
    """
    if n < 0 or n > 7:
        raise ValueError("n must lie in 0..7")
    p = 2 * n + 1
    lhs = abs(xi) ** p
    rhs = abs(xi - sigma) ** p + abs(xi - eta) ** p + abs(xi - sigma - eta) ** p
    return bool(lhs <= (3.0 ** (2 * n)) * rhs * (1.0 + 1e-12) + 1e-300)
