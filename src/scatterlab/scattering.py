"""
Profile dynamics on top of a Trajectory: running phase integrals, the
phase-corrected spectra and their large-time limits, the reduced-equation
residual, the asymptotic closed form, and the interpolation inequalities used
by the weighted estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagator import FrequencyRangeError, _ray_targets, free_evolve, spectrum_at
from .ratefit import RateFit, fit_rate
from .remainder import (
    RESONANT_COEFF,
    TrilinearInput,
    profile_spectra,
    remainder_physical,
)
from .solver import PairState, Trajectory
from .spectral import (
    SPECTRAL,
    ComplexField,
    Grid1D,
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
    stored at every snapshot time.  The unimodular phase correction is
    exp(i * RESONANT_COEFF * value).
    """

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray  # shape (len(times), N), nonnegative, nondecreasing in t
    source: str  # "u" or "v": which component's modulus is integrated
    quadrature_error: float

    def index_of(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise ValueError(f"time {t!r} is not an accumulator snapshot time")
        return int(hits[0])

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.index_of(t)]

    def correction_at(self, t: float) -> np.ndarray:
        return np.exp(1j * RESONANT_COEFF * self.value_at(t))


def profile(state: PairState) -> tuple[ComplexField, ComplexField]:
    """Backwards free evolution (f, g) = e^{-it d_xx} (u, v), physical side."""
    return free_evolve(state.u, -state.t), free_evolve(state.v, -state.t)


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


def apply_phase_correction(f_hat: ComplexField, acc: PhaseAccumulator, t: float) -> ComplexField:
    """
    Multiply a spectral profile by the unimodular correction built from the
    accumulator; the modulus is preserved pointwise.
    """
    f_hat.require_side(SPECTRAL)
    if f_hat.grid.N != acc.grid.N or f_hat.grid.L != acc.grid.L:
        raise ValueError("accumulator and field grids differ")
    return f_hat.with_samples(f_hat.samples * acc.correction_at(t))


def corrected_spectra(traj: Trajectory):
    """
    Per-snapshot phase-corrected spectra for both components:
    w_f = fhat * B(vhat), w_g = ghat * B(uhat).  Returns (series_f, series_g,
    acc_u, acc_v) with each series a list of (t, ComplexField); acc_u
    integrates |uhat|^2/s (driving the correction applied to ghat), acc_v
    |vhat|^2/s (driving the one applied to fhat).  The free group is
    unimodular, so |fhat| = |uhat| and |ghat| = |vhat| pointwise.  Each
    snapshot's profile spectra are computed once and feed both the phase
    accumulation and the correction; one component's squared moduli are held
    at a time.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("phase accumulation needs at least 2 snapshots")
    times = traj.times
    spectra = [profile_spectra(state) for state in traj.snapshots]
    sq = np.empty((len(times), traj.grid.N))
    err = 0.0
    vals = []
    for side in (0, 1):
        for m, pair in enumerate(spectra):
            sq[m] = np.abs(pair[side].samples) ** 2
        vals.append(_log_trapezoid_rows(times, sq))
        if len(times) >= 5:
            coarse = _log_trapezoid_rows(times[::2], sq[::2])
            err = max(err, float(np.max(np.abs(vals[side][::2] - coarse))) / 3.0)
            del coarse
    del sq  # the correction loop below holds neither
    acc_u = PhaseAccumulator(traj.grid, times, vals[0], "u", err)
    acc_v = PhaseAccumulator(traj.grid, times, vals[1], "v", err)
    series_f = []
    series_g = []
    for state in traj.snapshots:
        f_hat, g_hat = spectra.pop(0)  # never hold both whole series at once
        series_f.append((state.t, apply_phase_correction(f_hat, acc_v, state.t)))
        series_g.append((state.t, apply_phase_correction(g_hat, acc_u, state.t)))
    return series_f, series_g, acc_u, acc_v


def reduced_ode_residual(traj: Trajectory, m: int, acc_v: PhaseAccumulator | None = None) -> float:
    """
    L2 mismatch between the central-difference time derivative of w_f across
    snapshots m-1, m+1 and the closed-form right-hand side B * R at snapshot
    m.  Second order in the snapshot spacing.
    """
    if not 1 <= m <= len(traj.snapshots) - 2:
        raise ValueError("m must be an interior snapshot index")
    if acc_v is None:
        acc_v = corrected_spectra(traj)[3]
    states = traj.snapshots[m - 1 : m + 2]
    spectra = [profile_spectra(state) for state in states]
    w = [apply_phase_correction(f_hat, acc_v, s.t).samples for s, (f_hat, _) in zip(states, spectra)]
    t_lo, t_mid, t_hi = (s.t for s in states)
    h_minus = t_mid - t_lo
    h_plus = t_hi - t_mid
    deriv = (
        h_minus**2 * (w[2] - w[1]) + h_plus**2 * (w[1] - w[0])
    ) / (h_minus * h_plus * (h_minus + h_plus))
    rhs = acc_v.correction_at(t_mid) * remainder_physical(TrilinearInput(*spectra[1], t_mid)).samples
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


def _cauchy_pairs(series) -> list[tuple[float, float]]:
    times = np.array([t for t, _ in series])
    pairs = []
    for i, (t, f) in enumerate(series):
        hits = np.nonzero(np.abs(times - 2.0 * t) <= 1e-9 * times)[0]
        if hits.size:
            j = int(hits[0])
            diff = series[j][1].samples - f.samples
            pairs.append((t, float(np.max(np.abs(diff)))))
    return pairs


def estimate_limit(series, n: int) -> ScatteringEstimate:
    """
    Anchor the limit estimate W at the last snapshot and Gamma at the phase
    offset's last value, measure every snapshot's distance to W, and quantify
    convergence by fitting the max-norm and weighted-norm distances over
    t <= t_max/4 (the anchor's trivial zero is excluded).  Dyadic Cauchy
    differences are reported alongside as the anchor-free diagnostic.
    """
    if len(series) < 4:
        raise ValueError("limit estimation needs at least 4 snapshots")
    times = np.array([t for t, _ in series])
    if np.any(np.diff(times) <= 0) or times[0] < 1.0:
        raise ValueError("snapshot times must be increasing and >= 1")
    if times[-1] / times[0] < 10.0:
        raise ValueError("limit estimation needs at least one decade of time")
    w_last = series[-1][1]
    w_peak = norm_Linf(w_last)
    t_max = times[-1]
    diff_linf = np.empty(len(series))
    diff_h0n = np.empty(len(series))
    for i, (_, f) in enumerate(series):
        diff = ComplexField(f.grid, f.samples - w_last.samples, SPECTRAL)
        diff_linf[i] = norm_Linf(diff)
        diff_h0n[i] = norm_H0n(diff, n, scale=w_peak)
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
        gamma_limit=phase_offset(series)[1],
        diff_linf=diff_linf,
        diff_h0n=diff_h0n,
        fit_linf=fit_linf,
        fit_h0n=fit_h0n,
        cauchy=tuple(_cauchy_pairs(series)),
        window=(float(times[0]), float(t_max)),
    )


def phase_offset(series) -> tuple[list[tuple[float, np.ndarray]], np.ndarray]:
    """
    Running phase offset gamma(t) = integral_1^t (|w(tau)|^2 - |w(t)|^2)
    dtau/tau per frequency, evaluated as Phi(t) - |w(t)|^2 ln t with the same
    log-time trapezoid as the phase accumulators, and its anchor Gamma at the
    last snapshot.
    """
    if len(series) < 2:
        raise ValueError("phase offset needs at least 2 snapshots")
    times = np.array([t for t, _ in series])
    squares = np.array([np.abs(f.samples) ** 2 for _, f in series])
    phi = _log_trapezoid_rows(times, squares)
    out = []
    for m, (t, _) in enumerate(series):
        out.append((t, phi[m] - squares[m] * np.log(t)))
    return out, out[-1][1]


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

    traj: Trajectory
    times: np.ndarray
    series_f: list
    series_g: list
    acc_u: PhaseAccumulator
    acc_v: PhaseAccumulator
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
    series_f, series_g, acc_u, acc_v = corrected_spectra(traj)
    times = traj.times
    try:
        est_u = estimate_limit(series_f, traj.params.n)
        est_v = estimate_limit(series_g, traj.params.n)
    except ValueError:
        est_u = est_v = None

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
        traj=traj,
        times=times,
        series_f=series_f,
        series_g=series_g,
        acc_u=acc_u,
        acc_v=acc_v,
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
