"""
Profile dynamics on top of a Trajectory: running phase integrals, the
phase-corrected spectra and their large-time limits, the reduced-equation
residual, the asymptotic closed form, and the interpolation inequalities used
by the weighted estimates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .propagator import FrequencyRangeError, _check_rays, spectrum_at
from .ratefit import RateFit, fit_rate
from .remainder import (
    RESONANT_COEFF,
    TrilinearInput,
    profile_spectra,
    remainder_physical,
)
from .solver import Trajectory, _extent, _resample
from .spectral import (
    PHYSICAL,
    SPECTRAL,
    ComplexField,
    Grid1D,
    _cis,
    _h0n_of_modulus,
    _two_lanes,
    next_fast_len,
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

# amplitude, relative to each scattering limit's own peak, that the ray
# pass's band must hold (analyze_trajectory)
LIMIT_FLOOR = 1e-15


@dataclass(frozen=True)
class PhaseAccumulator:
    """
    Running quadrature of integral_1^t |hhat(s, xi)|^2 / s ds per frequency,
    one row per snapshot.  Snapshot m's unimodular phase correction is
    exp(i * RESONANT_COEFF * values[m]).
    """

    values: np.ndarray  # shape (snapshots, N), nonnegative, nondecreasing in t
    quadrature_error: float


def _log_trapezoid(times: np.ndarray, rows):
    """
    Running integral of |rows(s)|^2 ds/s from times[0] by the trapezoid in
    sigma = ln s, where the integrand is smooth and the geometric schedule is
    uniform, streamed: yields (integral to times[m], |rows[m]|^2) for each m
    in turn, each a fresh array, holding two rows of squares at a time.
    """
    sigma = np.log(times)
    prev = np.abs(rows[0]) ** 2
    total = np.zeros_like(prev)
    yield total, prev
    for m in range(1, len(times)):
        sq = np.abs(rows[m]) ** 2
        total = total + 0.5 * (sigma[m] - sigma[m - 1]) * (sq + prev)
        yield total, sq
        prev = sq


def _accumulate(times: np.ndarray, rows, values: np.ndarray) -> float:
    """
    Write the running integral of |rows|^2 ds/s at times[m] into values[m]
    and return its quadrature error: the largest gap to the same rule over
    every other snapshot, divided by 3 as for an order-2 rule (0 below 5
    snapshots).
    """
    for out, (total, _) in zip(values, _log_trapezoid(times, rows)):
        out[...] = total
    if len(times) < 5:
        return 0.0
    coarse = _log_trapezoid(times[::2], rows[::2])
    return max(float(np.max(np.abs(fine - total))) for fine, (total, _) in zip(values[::2], coarse)) / 3.0


def _phase_correction(integral: np.ndarray) -> np.ndarray:
    """exp(i c integral), c = RESONANT_COEFF, from cos and sin of the real
    angle (spectral._cis)."""
    return _cis(RESONANT_COEFF * integral)


def _correct(rows, integrals: np.ndarray) -> None:
    """rows[m] times the phase correction of integrals[m], in place."""
    for row, integral in zip(rows, integrals):
        row *= _phase_correction(integral)


def corrected_spectra(traj: Trajectory):
    """
    Per-snapshot phase-corrected spectra for both components:
    w_f = fhat * B(vhat), w_g = ghat * B(uhat).  Returns (w_f, w_g, acc_u,
    acc_v) with w_f[m], w_g[m] the spectral-side sample rows of
    traj.snapshots[m], views of one profile block corrected in place; acc_u
    integrates |uhat|^2/s (driving the correction applied to ghat), acc_v
    |vhat|^2/s (driving the one applied to fhat), and each reports its own
    quadrature error.  The free group is unimodular, so |fhat| = |uhat| and
    |ghat| = |vhat| pointwise.  Each side's accumulator, and after that each
    side's correction, is computed on a lane of its own.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("phase accumulation needs at least 2 snapshots")
    times = traj.times
    block = profile_spectra(traj.snapshots)
    w_f, w_g = block[:, 0], block[:, 1]
    values_u, values_v = np.empty(w_f.shape), np.empty(w_g.shape)
    err_u, err_v = _two_lanes(_accumulate, (times, w_f, values_u), (times, w_g, values_v))
    _two_lanes(_correct, (w_f, values_v), (w_g, values_u))
    return w_f, w_g, PhaseAccumulator(values_u, err_u), PhaseAccumulator(values_v, err_v)


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
    rhs = np.multiply(_phase_correction(acc_v.values[m]), remainder_physical(inp).samples)
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
        mag = np.abs(w - w_last.samples)
        diff_linf[i] = np.max(mag)
        diff_h0n[i] = _h0n_of_modulus(mag, grid.xi, grid.dxi, n, scale=w_peak)
    fit = times <= t_max / 4.0
    try:
        fit_linf = fit_rate(times[fit], diff_linf[fit])
    except ValueError:
        fit_linf = None
    try:
        fit_h0n = fit_rate(times[fit], diff_h0n[fit])
    except ValueError:
        fit_h0n = None
    # Gamma is phase_offset(times, rows)[-1], streamed without the other rows
    phi, square = deque(_log_trapezoid(times, rows), maxlen=1).pop()
    return ScatteringEstimate(
        W=w_last,
        gamma_limit=phi - square * np.log(t_max),
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
    return np.array([total - sq * np.log(t) for t, (total, sq) in zip(times, _log_trapezoid(times, rows))])


def _closed_form_gap(
    actual: ComplexField, t: float, lo: int, hi: int, w_own: np.ndarray, w_other: np.ndarray, gamma_other: np.ndarray
) -> float:
    """
    Max-norm distance between the field actual at time t and the closed form
    (2it)^{-1/2} W(x/2t) exp(i x^2/4t - i c (|W_other|^2 ln t + Gamma))
    with c = RESONANT_COEFF, from W_own, W_other and Gamma_other evaluated
    along the rays x_j/2t of the window lo <= j < hi by band-limited
    interpolation.  The closed form is 0 outside the window, where the gap
    is |actual| itself.
    """
    phase = actual.grid.x[lo:hi] ** 2 / (4.0 * t) - RESONANT_COEFF * (
        np.abs(w_other) ** 2 * np.log(t) + gamma_other.real
    )
    closed = (2j * t) ** (-0.5) * w_own * _cis(phase)
    samples = actual.samples
    gaps = np.abs(samples[lo:hi] - closed), np.abs(samples[:lo]), np.abs(samples[hi:])
    return float(np.max([np.max(gap, initial=0.0) for gap in gaps]))


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


def _norm_series(fields) -> tuple[np.ndarray, np.ndarray]:
    """One component's max norm and mass at every snapshot."""
    return np.array([norm_Linf(f) for f in fields]), np.array([norm_L2(f) ** 2 for f in fields])


def analyze_trajectory(traj: Trajectory, with_asymptotic: bool = True) -> TrajectoryAnalysis:
    """Run the full per-snapshot analysis; quantities that need a longer
    window or a finer frequency grid degrade to None/NaN rather than fail.
    The ray pass evaluates the limits on their band: the same L and the
    smallest even fast length, at most N, whose centred frequencies hold
    each limit above LIMIT_FLOOR of its own peak; the closed form is 0 on
    the rays beyond it, so only the window of rays inside it is evaluated."""
    w_f, w_g = corrected_spectra(traj)[:2]  # drops the phase accumulators
    times = traj.times
    try:
        est_u, est_v = _two_lanes(
            estimate_limit, (times, w_f, traj.grid, traj.params.n), (times, w_g, traj.grid, traj.params.n)
        )
    except ValueError:
        est_u = est_v = None
    del w_f, w_g  # only the estimates are read; the ray pass reuses this

    m = len(times)
    (u_linf, u_mass), (v_linf, v_mass) = _two_lanes(
        _norm_series, ([s.u for s in traj.snapshots],), ([s.v for s in traj.snapshots],)
    )
    nanrow = np.full(m, np.nan)
    asym_u, asym_v = nanrow.copy(), nanrow.copy()
    if est_u is not None and with_asymptotic:
        # transformed once, on the band; every snapshot time evaluates all
        # four on the rays inside it
        grid = traj.grid
        spectra = [est_u.W.samples, est_v.W.samples, est_u.gamma_limit, est_v.gamma_limit]
        k = round(max(_extent(s, grid.xi, LIMIT_FLOOR) for s in spectra) / grid.dxi)
        band = Grid1D(grid.L, min(grid.N, max(8, 2 * next_fast_len(k + 1))))
        limits = [ComplexField(band, _resample(s, band), PHYSICAL) for s in spectra]
        edge = float(band.xi[-1])
        for i, t in enumerate(times):
            try:
                _check_rays(grid, t)
            except FrequencyRangeError:
                continue
            # the rays x_j/2t inside the band: x[lo]/2t + k dx/2t, in extended precision
            lo, hi = np.searchsorted(grid.x, -2 * t * edge), np.searchsorted(grid.x, 2 * t * edge, "right")
            two_t = 2 * np.longdouble(t)
            w_u, w_v, ray_gamma_u, ray_gamma_v = spectrum_at(limits, grid.x[lo] / two_t, grid.dx / two_t, hi - lo)
            state = traj.snapshots[i]
            asym_u[i], asym_v[i] = _two_lanes(
                _closed_form_gap,
                (state.u, t, lo, hi, w_u, w_v, ray_gamma_v),
                (state.v, t, lo, hi, w_v, w_u, ray_gamma_u),
            )
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
