"""
Profile dynamics on top of a Trajectory: running phase integrals, the
phase-corrected spectra and their large-time limits, the reduced-equation
residual, the asymptotic closed form, and the interpolation inequalities used
by the weighted estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagator import FrequencyRangeError, _ray_targets, spectrum_at
from .ratefit import RateFit, fit_rate
from .remainder import (
    RESONANT_COEFF,
    TrilinearInput,
    profile_spectra,
    remainder_physical,
)
from .solver import Trajectory
from .spectral import (
    SPECTRAL,
    ComplexField,
    Grid1D,
    _times_temporary,
    fourier_inverse,
    norm_H0n,
    norm_L1,
    norm_L2,
    norm_Linf,
)

# L1 interpolation constant from the two-piece Cauchy-Schwarz optimization.
# The nominal optimization gives 2; carrying the interval-measure factors
# through exactly gives the provable 2*sqrt(2) (sharp constant: sqrt(2*pi)).
L1_INTERP_CONSTANT = 2.0
L1_INTERP_CONSTANT_SAFE = 2.0 * np.sqrt(2.0)
CHAIN_CONSTANT_SAFE = float(np.sqrt(L1_INTERP_CONSTANT_SAFE))


@dataclass(frozen=True)
class PhaseAccumulator:
    """
    Running quadrature of integral_1^t |hhat(s, xi)|^2 / s ds per frequency,
    one row per snapshot.  Snapshot m's unimodular phase correction is
    exp(i * RESONANT_COEFF * values[m]).
    """

    values: np.ndarray  # shape (snapshots, N), nonnegative, nondecreasing in t
    quadrature_error: float


def _log_trapezoid_rows(times: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """
    Cumulative trapezoid of |h(s)|^2 / s ds over snapshot times, done in
    sigma = ln s where the integrand is smooth and the geometric schedule is
    uniform.  Rows are the running integral at each snapshot.
    """
    out = np.zeros_like(squares)
    sigma = np.log(times)
    for m in range(1, len(times)):
        step = sigma[m] - sigma[m - 1]
        out[m] = out[m - 1] + 0.5 * step * (squares[m] + squares[m - 1])
    return out


def corrected_spectra(traj: Trajectory):
    """
    Per-snapshot phase-corrected spectra for both components:
    w_f = fhat * B(vhat), w_g = ghat * B(uhat).  Returns (w_f, w_g, acc_u,
    acc_v) with w_f[m], w_g[m] the spectral-side sample rows of
    traj.snapshots[m], views of one profile block corrected in place; acc_u
    integrates |uhat|^2/s (driving the correction applied to ghat), acc_v
    |vhat|^2/s (driving the one applied to fhat), and each reports its own
    quadrature error.  The free group is unimodular, so |fhat| = |uhat| and
    |ghat| = |vhat| pointwise.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("phase accumulation needs at least 2 snapshots")
    times = traj.times
    block = profile_spectra(traj.snapshots)
    accs = []
    for side in (0, 1):
        sq = np.abs(block[:, side]) ** 2
        vals = _log_trapezoid_rows(times, sq)
        err = 0.0
        if len(times) >= 5:
            coarse = _log_trapezoid_rows(times[::2], sq[::2])
            err = float(np.max(np.abs(vals[::2] - coarse))) / 3.0
            del coarse
        del sq  # before the other side's squares
        accs.append(PhaseAccumulator(vals, err))
    acc_u, acc_v = accs
    for m in range(len(times)):
        for row, acc in ((block[m, 0], acc_v), (block[m, 1], acc_u)):
            _times_temporary(row, np.exp(1j * RESONANT_COEFF * acc.values[m]), row)
    return block[:, 0], block[:, 1], acc_u, acc_v


def reduced_ode_residual(traj: Trajectory, m: int, w_f, acc_v: PhaseAccumulator) -> float:
    """
    L2 mismatch between the central-difference time derivative of w_f across
    snapshots m-1, m+1 and the closed-form right-hand side B * R at snapshot
    m, with (w_f, acc_v) from corrected_spectra(traj).  Second order in the
    snapshot spacing.
    """
    if not 1 <= m <= len(traj.snapshots) - 2:
        raise ValueError("m must be an interior snapshot index")
    t_lo, t_mid, t_hi = traj.times[m - 1 : m + 2]
    h_minus = t_mid - t_lo
    h_plus = t_hi - t_mid
    deriv = (
        h_minus**2 * (w_f[m + 1] - w_f[m]) + h_plus**2 * (w_f[m] - w_f[m - 1])
    ) / (h_minus * h_plus * (h_minus + h_plus))
    pair = profile_spectra(traj.snapshots[m : m + 1])[0]
    inp = TrilinearInput(*(ComplexField(traj.grid, row, SPECTRAL) for row in pair), t_mid)
    rhs = np.exp(1j * RESONANT_COEFF * acc_v.values[m]) * remainder_physical(inp).samples
    diff = ComplexField(traj.grid, deriv - rhs, SPECTRAL)
    return norm_L2(diff)


@dataclass(frozen=True)
class ScatteringEstimate:
    """Late-time limit W of a phase-corrected spectrum, the limit Gamma of its
    phase offset, each snapshot's distance to W and the convergence fits."""

    W: ComplexField
    gamma_limit: np.ndarray
    diff_linf: np.ndarray  # per snapshot: max norm of w(t) - W
    diff_h0n: np.ndarray  # per snapshot: H^{0,n} norm of w(t) - W
    fit_linf: RateFit | None
    fit_h0n: RateFit | None
    cauchy: tuple[tuple[float, float], ...]
    window: tuple[float, float]


def _cauchy_pairs(times: np.ndarray, rows) -> list[tuple[float, float]]:
    """Dyadic differences max|w(t_j) - w(t_i)|, t_j the time nearest 2 t_i (within 1e-9)."""
    pairs = []
    for t, w in zip(times, rows):
        j = int(np.argmin(np.abs(times - 2.0 * t)))
        if abs(times[j] - 2.0 * t) <= 1e-9 * times[j]:
            pairs.append((float(t), float(np.max(np.abs(rows[j] - w)))))
    return pairs


def estimate_limit(times: np.ndarray, rows, grid: Grid1D, n: int) -> ScatteringEstimate:
    """
    Anchor the limit estimate W at the last row and Gamma at the phase
    offset's last row, measure every row's distance to W, and quantify
    convergence by fitting the max-norm and weighted-norm distances over
    t <= t_max/4 (the anchor's trivial zero is excluded).  rows[m] holds the
    spectral samples at the increasing snapshot time times[m] >= 1.  Dyadic
    Cauchy differences are reported alongside as the anchor-free diagnostic.
    """
    if len(rows) < 4:
        raise ValueError("limit estimation needs at least 4 snapshots")
    if times[-1] / times[0] < 10.0:
        raise ValueError("limit estimation needs at least one decade of time")
    w_last = ComplexField(grid, rows[-1], SPECTRAL)
    w_peak = norm_Linf(w_last)
    t_max = times[-1]
    diff_linf = np.empty(len(rows))
    diff_h0n = np.empty(len(rows))
    for i, w in enumerate(rows):
        diff = w - w_last.samples
        diff_linf[i] = np.max(np.abs(diff))
        diff_h0n[i] = norm_H0n(ComplexField(grid, diff, SPECTRAL), n, scale=w_peak)
    fit = times <= t_max / 4.0
    try:
        fit_linf = fit_rate(times[fit], diff_linf[fit])
    except ValueError:
        fit_linf = None
    try:
        fit_h0n = fit_rate(times[fit], diff_h0n[fit])
    except ValueError:
        fit_h0n = None
    return ScatteringEstimate(
        W=w_last,
        gamma_limit=phase_offset(times, rows)[-1].copy(),  # not a view holding every row
        diff_linf=diff_linf,
        diff_h0n=diff_h0n,
        fit_linf=fit_linf,
        fit_h0n=fit_h0n,
        cauchy=tuple(_cauchy_pairs(times, rows)),
        window=(float(times[0]), float(t_max)),
    )


def phase_offset(times: np.ndarray, rows) -> np.ndarray:
    """
    Running phase offset gamma(t) = integral_1^t (|w(tau)|^2 - |w(t)|^2)
    dtau/tau per frequency, one row per snapshot, evaluated as
    Phi(t) - |w(t)|^2 ln t with the same log-time trapezoid as the phase
    accumulators.  The last row is the anchor Gamma.
    """
    if len(rows) < 2:
        raise ValueError("phase offset needs at least 2 snapshots")
    squares = np.abs(rows) ** 2
    out = _log_trapezoid_rows(times, squares)
    for m, t in enumerate(times):
        out[m] -= squares[m] * np.log(t)
    return out


def _closed_form_gap(
    actual: ComplexField, t: float, w_own: np.ndarray, w_other: np.ndarray, gamma_other: np.ndarray
) -> float:
    """
    Max-norm distance between the field actual at time t and the closed form
    (2it)^{-1/2} W(x/2t) exp(i x^2/4t - i c (|W_other|^2 ln t + Gamma))
    with c = RESONANT_COEFF, from W_own, W_other and Gamma_other evaluated
    along the rays x/2t by band-limited interpolation.
    """
    phase = actual.grid.x**2 / (4.0 * t) - RESONANT_COEFF * (
        np.abs(w_other) ** 2 * np.log(t) + gamma_other.real
    )
    closed = (2j * t) ** (-0.5) * w_own * np.exp(1j * phase)
    return float(np.max(np.abs(actual.samples - closed)))


def interpolation_pairs(field: ComplexField, n: int) -> dict[str, tuple[float, float]]:
    """
    Both sides of the interpolation inequalities, evaluated with one
    quadrature throughout (constants are NOT folded in):

      "l1":          ||f||_L1        vs  sqrt(||f||_L2 * ||coord f||_L2)
      "weighted_l2": ||coord^n f||_2 vs  sqrt(||f||_inf * ||f||_{H^{0,2n+1}})
      "holder_step": ||coord^n f||_2 vs  sqrt(||f||_inf * ||coord^{2n} f||_1)

    The Holder step holds with constant exactly 1; the l1 pair needs the
    module-level constants.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coord = np.abs(field.grid.coordinate(field.side))
    weighted_n = field.with_samples(field.samples * coord**n)
    weighted_2n = field.with_samples(field.samples * coord ** (2 * n))
    coord_f = field.with_samples(field.samples * coord)
    linf = norm_Linf(field)
    return {
        "l1": (norm_L1(field), float(np.sqrt(norm_L2(field) * norm_L2(coord_f)))),
        "weighted_l2": (
            norm_L2(weighted_n),
            float(np.sqrt(linf * norm_H0n(field, 2 * n + 1))),
        ),
        "holder_step": (
            norm_L2(weighted_n),
            float(np.sqrt(linf * norm_L1(weighted_2n))),
        ),
    }


@dataclass(frozen=True)
class TrajectoryAnalysis:
    """Everything the reports need, computed once from a trajectory."""

    times: np.ndarray
    est_u: ScatteringEstimate | None
    est_v: ScatteringEstimate | None
    u_linf: np.ndarray
    v_linf: np.ndarray
    u_mass: np.ndarray
    v_mass: np.ndarray
    wf_diff_linf: np.ndarray
    wg_diff_linf: np.ndarray
    wf_diff_h0n: np.ndarray
    wg_diff_h0n: np.ndarray
    asym_u: np.ndarray
    asym_v: np.ndarray


def analyze_trajectory(traj: Trajectory, with_asymptotic: bool = True) -> TrajectoryAnalysis:
    """Run the full per-snapshot analysis; quantities that need a longer
    window or a finer frequency grid degrade to None/NaN rather than fail."""
    w_f, w_g = corrected_spectra(traj)[:2]  # drops the phase accumulators
    times = traj.times
    try:
        est_u = estimate_limit(times, w_f, traj.grid, traj.params.n)
        est_v = estimate_limit(times, w_g, traj.grid, traj.params.n)
    except ValueError:
        est_u = est_v = None
    del w_f, w_g  # only the estimates are read; the ray pass reuses this

    m = len(times)
    u_linf = np.array([norm_Linf(s.u) for s in traj.snapshots])
    v_linf = np.array([norm_Linf(s.v) for s in traj.snapshots])
    u_mass = np.array([norm_L2(s.u) ** 2 for s in traj.snapshots])
    v_mass = np.array([norm_L2(s.v) ** 2 for s in traj.snapshots])
    nanrow = np.full(m, np.nan)
    asym_u, asym_v = nanrow.copy(), nanrow.copy()
    if est_u is not None and with_asymptotic:
        # transformed once; every snapshot time evaluates all four on its rays
        limits = [fourier_inverse(est_u.W), fourier_inverse(est_v.W)] + [
            fourier_inverse(ComplexField(traj.grid, e.gamma_limit, SPECTRAL)) for e in (est_u, est_v)
        ]
        for i, t in enumerate(times):
            try:
                targets = _ray_targets(traj.grid, t)
            except FrequencyRangeError:
                continue
            w_u, w_v, ray_gamma_u, ray_gamma_v = spectrum_at(limits, targets)
            state = traj.snapshots[i]
            asym_u[i] = _closed_form_gap(state.u, t, w_u, w_v, ray_gamma_v)
            asym_v[i] = _closed_form_gap(state.v, t, w_v, w_u, ray_gamma_u)
            del w_u, w_v, ray_gamma_u, ray_gamma_v  # before the next time's spectra
    return TrajectoryAnalysis(
        times=times,
        est_u=est_u,
        est_v=est_v,
        u_linf=u_linf,
        v_linf=v_linf,
        u_mass=u_mass,
        v_mass=v_mass,
        wf_diff_linf=nanrow if est_u is None else est_u.diff_linf,
        wg_diff_linf=nanrow if est_u is None else est_v.diff_linf,
        wf_diff_h0n=nanrow if est_u is None else est_u.diff_h0n,
        wg_diff_h0n=nanrow if est_u is None else est_v.diff_h0n,
        asym_u=asym_u,
        asym_v=asym_v,
    )
