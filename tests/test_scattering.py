import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import scatterlab as sl
import scatterlab.propagator as propagator
import scatterlab.remainder as remainder
import scatterlab.scattering as scattering
from scatterlab.remainder import RESONANT_COEFF, TrilinearInput
from scatterlab.propagator import _check_rays
from scatterlab.scattering import _cauchy_pairs, _closed_form_gap
from scatterlab.scattering import LIMIT_FLOOR
from scatterlab.spectral import _cis
from scipy.fft import next_fast_len
from conftest import CONFIGS, coarsen


def zero_trajectory(t_end=16.0):
    grid = sl.Grid1D(L=16.0, N=64)
    zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
    params = sl.AnalysisParams.make(epsilon=0.0)
    snaps = tuple(
        sl.PairState(zero, zero, float(t)) for t in sl.geometric_schedule(t_end)
    )
    return sl.Trajectory(grid=grid, params=params, snapshots=snaps, dt=0.1)


def free_pair_trajectory(t_end=32.0, L=700.0, N=4096, width=1.0):
    """Both components freely evolved: every |profile spectrum| is constant."""
    grid = sl.Grid1D(L=L, N=N)
    u1 = sl.ComplexField(grid, 0.3 * np.exp(-grid.x**2 / (2 * width**2)), "physical")
    v1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / (3 * width**2)), "physical")
    params = sl.AnalysisParams.make(epsilon=0.3)
    snaps = []
    for t in sl.geometric_schedule(t_end):
        snaps.append(
            sl.PairState(sl.free_evolve(u1, t - 1.0), sl.free_evolve(v1, t - 1.0), float(t))
        )
    return sl.Trajectory(grid=grid, params=params, snapshots=tuple(snaps), dt=0.1)


def physical_profiles(state):
    """Physical profiles (f, g) = e^{-it d_xx} (u, v), from the spectral ones."""
    f_hat, g_hat = sl.profile_spectra([state])[0]
    return (
        sl.fourier_inverse(sl.ComplexField(state.grid, f_hat, "spectral")),
        sl.fourier_inverse(sl.ComplexField(state.grid, g_hat, "spectral")),
    )


def corrected_checked(traj):
    """corrected_spectra(traj), after checking that every corrected spectrum is
    bitwise fhat_m exp(i c Phi_v[m]) (ghat_m exp(i c Phi_u[m])) at its own m."""
    out = w_f, w_g, acc_u, acc_v = sl.corrected_spectra(traj)
    assert len(w_f) == len(w_g) == len(traj.snapshots)
    for m, (f_hat, g_hat) in enumerate(sl.profile_spectra(traj.snapshots)):
        expect_f = np.multiply(f_hat, np.exp(1j * RESONANT_COEFF * acc_v.values[m]))
        expect_g = np.multiply(g_hat, np.exp(1j * RESONANT_COEFF * acc_u.values[m]))
        assert np.array_equal(bits(w_f[m]), bits(expect_f)), f"w_f at m = {m}"
        assert np.array_equal(bits(w_g[m]), bits(expect_g)), f"w_g at m = {m}"
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def ray_band(grid, spectra):
    """The ray pass's band: the grid with grid's L and the smallest even
    n = 2 * (11-smooth), at least 8 and at most N, whose centred frequency
    indices -n/2 .. n/2-1 hold every sample above LIMIT_FLOOR of its own
    spectrum's peak."""
    k = 0
    for s in spectra:
        mag = np.abs(s)
        if mag.max() > 0:
            k = max(k, int(np.max(np.abs(np.flatnonzero(mag > LIMIT_FLOOR * mag.max()) - grid.N // 2))))
    return sl.Grid1D(grid.L, min(grid.N, max(8, 2 * next_fast_len(k + 1))))


def band_fields(grid, spectra):
    """The spectra cut to their ray band, as physical fields on the band grid."""
    band = ray_band(grid, spectra)
    cut = slice((grid.N - band.N) // 2, (grid.N + band.N) // 2)
    return [sl.fourier_inverse(sl.ComplexField(band, s[cut], "spectral")) for s in spectra]


def in_band(grid, t, band):
    """Which rays x_j/2t of the grid's nodes lie in the band: |x_j| <= 2t * edge."""
    return np.abs(grid.x) <= 2 * t * band.xi[-1]


def ray_geometry(grid, t, inside):
    """(xi0, dxi, m) of the contiguous rays x_j/2t where inside holds, in
    extended precision: x_lo/2t + k dx/2t."""
    lo, hi = np.flatnonzero(inside)[[0, -1]]
    two_t = 2 * np.longdouble(t)
    return grid.x[lo] / two_t, grid.dx / two_t, hi + 1 - lo


def band_rows(grid, spectra, t, single=False):
    """The window lo:hi of the rays x_j/2t inside the spectra's ray band, and
    the spectra's interpolants along those rays as one (len(spectra),
    hi - lo) block: (lo, hi, block).  spectrum_at of the band grid's
    physical limits on the in-band rays, one call for all spectra
    (single=False) or one per spectrum.  FrequencyRangeError if the grid's
    rays leave the grid's band."""
    _check_rays(grid, t)
    fields = band_fields(grid, spectra)
    inside = in_band(grid, t, fields[0].grid)
    geometry = ray_geometry(grid, t, inside)
    if single:
        rows = np.array([sl.spectrum_at([field], *geometry)[0] for field in fields])
    else:
        rows = np.array(sl.spectrum_at(fields, *geometry))
    lo = int(np.flatnonzero(inside)[0])
    return lo, lo + geometry[2], rows


def zero_padded(grid, lo, hi, rows):
    """Rows on the window lo:hi of rays as N-point rows, 0 outside it."""
    out = np.zeros((len(rows), grid.N), dtype=complex)
    out[:, lo:hi] = rows
    return out


class TestProfile:
    def test_profile_at_unit_time(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 2.0)
        f, g = physical_profiles(sl.PairState(u1, v1, 1.0))
        expect = sl.free_evolve(u1, -1.0)
        assert np.max(np.abs(f.samples - expect.samples)) < 1e-13

    def test_profile_round_trip(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 2.0)
        state = sl.PairState(sl.free_evolve(u1, 2.5), sl.free_evolve(v1, 2.5), 3.5)
        f, _ = physical_profiles(state)
        back = sl.free_evolve(f, 3.5)
        assert np.max(np.abs(back.samples - state.u.samples)) < 1e-12

    def test_profile_static_for_free_solution(self):
        traj = free_pair_trajectory(t_end=16.0)
        f0, _ = physical_profiles(traj.snapshots[0])
        for s in traj.snapshots[1:]:
            f, _ = physical_profiles(s)
            assert np.max(np.abs(f.samples - f0.samples)) < 1e-12

    @pytest.mark.parametrize("N", [4096, 2**15])
    def test_block_rows_bitwise_per_state_formula(self, N):
        # each row keeps the operand order (transform, phase) of the
        # per-state product
        traj = free_pair_trajectory(t_end=4.0, L=700.0, N=N)
        block = sl.profile_spectra(traj.snapshots)
        assert block.shape == (len(traj.snapshots), 2, N) and block.dtype == np.complex128
        for row, state in zip(block, traj.snapshots):
            back = _cis(state.t * state.grid.xi**2)
            for side, field in enumerate((state.u, state.v)):
                expect = sl.fourier_forward(field).samples * back
                assert np.array_equal(bits(row[side]), bits(expect)), (state.t, side)


class TestAccumulatePhase:
    def test_zero_trajectory(self):
        acc_u, acc_v = sl.corrected_spectra(zero_trajectory())[2:]
        for acc in (acc_u, acc_v):
            assert np.all(acc.values == 0)
            assert np.all(np.exp(1j * RESONANT_COEFF * acc.values[-1]) == 1.0)

    def test_constant_modulus_gives_log_growth(self):
        # free evolution keeps |vhat| fixed, so the integral is |vhat|^2 ln t
        # and the log-time trapezoid is exact on constants
        traj = free_pair_trajectory(t_end=32.0)
        acc_u, acc_v = sl.corrected_spectra(traj)[2:]
        vhat1 = sl.fourier_forward(traj.snapshots[0].v)
        expect = np.abs(vhat1.samples) ** 2 * np.log(traj.times[-1])
        got = acc_v.values[-1]
        assert np.max(np.abs(got - expect)) < 1e-12 * max(1.0, np.max(expect))

    def test_monotone_in_time(self, richardson_traj):
        acc_u, acc_v = sl.corrected_spectra(richardson_traj)[2:]
        for acc in (acc_u, acc_v):
            assert np.all(np.diff(acc.values, axis=0) >= 0)

    def test_quadrature_error_halves_at_order_two(self, richardson_traj):
        # consecutive-level differences of an order-2 rule shrink 4x per halving
        fine = sl.corrected_spectra(richardson_traj)[3]
        coarse = sl.corrected_spectra(coarsen(richardson_traj))[3]
        double = sl.corrected_spectra(coarsen(coarsen(richardson_traj)))[3]
        d1 = np.max(np.abs(coarse.values[-1] - fine.values[-1]))
        d2 = np.max(np.abs(double.values[-1] - coarse.values[-1]))
        assert 3.2 <= d2 / d1 <= 4.8
        # the reported estimate tracks the real coarse-vs-fine gap
        assert coarse.quadrature_error > 0
        assert d1 / 10 <= 3 * coarse.quadrature_error <= 10 * d1

    def test_each_accumulator_reports_its_own_error(self):
        # v at 1% of u's amplitude: the two components' estimates differ, and
        # each is the coarse-vs-fine gap of its own log-time trapezoid / 3
        grid = sl.Grid1D(L=240.0, N=512)
        u1, _ = sl.initial_pair(grid, "gaussian", 0.2, 3.0)
        v1 = sl.ComplexField(grid, 0.01 * u1.samples, "physical")
        params = sl.AnalysisParams.make(epsilon=0.2)
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), 16.0, 0.05, sl.geometric_schedule(16.0), params)
        acc_u, acc_v = sl.corrected_spectra(traj)[2:]
        times = traj.times
        sigma = np.log(times[::2])
        for side, acc in ((0, acc_u), (1, acc_v)):
            sq = np.abs(sl.profile_spectra(traj.snapshots)[:, side]) ** 2
            coarse = np.zeros_like(sq[::2])
            for k in range(1, len(sigma)):
                coarse[k] = coarse[k - 1] + 0.5 * (sigma[k] - sigma[k - 1]) * (sq[2 * k] + sq[2 * k - 2])
            own = float(np.max(np.abs(acc.values[::2] - coarse))) / 3.0
            assert abs(acc.quadrature_error - own) <= 1e-12 * own, side
        assert acc_u.quadrature_error != acc_v.quadrature_error


class TestPhaseCorrection:
    def test_zero_accumulator_is_identity(self):
        # v = 0: Phi_v vanishes, so w_f is fhat itself
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.3 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        snaps = tuple(
            sl.PairState(sl.free_evolve(u1, t - 1.0), zero, float(t)) for t in sl.geometric_schedule(16.0)
        )
        traj = sl.Trajectory(grid=grid, params=sl.AnalysisParams.make(epsilon=0.3), snapshots=snaps, dt=0.1)
        w_f, _, _, acc_v = corrected_checked(traj)
        assert np.all(acc_v.values == 0)
        for w, f_hat in zip(w_f, sl.profile_spectra(traj.snapshots)[:, 0]):
            assert np.array_equal(w, f_hat)

    def test_modulus_preserved(self, richardson_traj):
        w = corrected_checked(richardson_traj)[0][5]
        f_hat = sl.profile_spectra(richardson_traj.snapshots[5:6])[0, 0]
        assert np.max(np.abs(np.abs(w) - np.abs(f_hat))) < 1e-15

    def test_rows_are_views_of_one_block(self, richardson_traj):
        # corrected in place: no second copy of the spectra
        w_f, w_g = sl.corrected_spectra(richardson_traj)[:2]
        assert w_f.shape == w_g.shape == (len(richardson_traj.snapshots), richardson_traj.grid.N)
        assert w_f.base is not None and w_f.base is w_g.base
        assert w_f.base.shape == (len(richardson_traj.snapshots), 2, richardson_traj.grid.N)

    def test_formula_bitwise_at_large_size(self):
        corrected_checked(free_pair_trajectory(t_end=8.0, L=700.0, N=2**14))

    def test_explicit_half_turn(self):
        # v a free point mass: |vhat|^2 is the same at every frequency and
        # time, so Phi_v(t) = |vhat|^2 ln t, scaled here to pi / RESONANT_COEFF
        # at t = 2, where the correction flips the sign of fhat
        grid = sl.Grid1D(L=16.0, N=64)
        spike = np.zeros(grid.N, dtype=complex)
        spike[grid.N // 2] = 1.0
        m2 = np.abs(sl.fourier_forward(sl.ComplexField(grid, spike, "physical")).samples) ** 2
        spike *= np.sqrt(np.pi / RESONANT_COEFF / (m2[0] * np.log(2.0)))
        u1 = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
        v1 = sl.ComplexField(grid, spike, "physical")
        snaps = tuple(
            sl.PairState(sl.free_evolve(u1, t - 1.0), sl.free_evolve(v1, t - 1.0), t) for t in (1.0, 2.0)
        )
        traj = sl.Trajectory(grid=grid, params=sl.AnalysisParams.make(epsilon=0.3), snapshots=snaps, dt=0.1)
        w = corrected_checked(traj)[0][1]
        f_hat = sl.profile_spectra(snaps[1:])[0, 0]
        assert np.max(np.abs(w + f_hat)) < 1e-14

    @pytest.mark.parametrize(
        "times",
        [
            [1.0, 2.0, 4.0, 4.0 * (1 + 5e-10)],
            sl.geometric_schedule(16.0000000016),  # ends ..., 16, 16.0000000016
        ],
        ids=["near_duplicate_last", "geometric_schedule"],
    )
    def test_near_duplicate_times_keep_their_rows(self, times):
        # snapshots closer than any time tolerance still get their own row
        grid = sl.Grid1D(L=240.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 3.0)
        params = sl.AnalysisParams.make(epsilon=0.2)
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), times[-1], 0.05, times[1:], params)
        assert np.array_equal(traj.times, times)
        acc_v = corrected_checked(traj)[3]
        assert not np.array_equal(acc_v.values[-1], acc_v.values[-2])


class TestReducedOde:
    def test_zero_trajectory(self):
        traj = zero_trajectory()
        w_f, _, _, acc_v = sl.corrected_spectra(traj)
        assert sl.reduced_ode_residual(traj, 2, w_f, acc_v) == 0.0

    def test_linear_case_small(self):
        # v = 0: both the derivative and the right-hand side vanish
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        params = sl.AnalysisParams.make(epsilon=0.2)
        sched = sl.geometric_schedule(21.0)
        traj = sl.evolve(sl.PairState(u1, zero, 1.0), 21.0, 0.05, sched, params)
        w_f, _, _, acc_v = sl.corrected_spectra(traj)
        assert sl.reduced_ode_residual(traj, 5, w_f, acc_v) < 1e-11

    def test_profile_spectra_once_per_pass(self, monkeypatch):
        traj = zero_trajectory()
        w_f, _, _, acc_v = sl.corrected_spectra(traj)
        calls = []

        def counting(states):
            calls.append(list(states))
            return sl.profile_spectra(states)

        def called_with(*expected):
            assert len(calls) == len(expected)
            for got, want in zip(calls, expected):
                assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
            calls.clear()

        monkeypatch.setattr(scattering, "profile_spectra", counting)
        sl.analyze_trajectory(traj)
        called_with(traj.snapshots)
        # the rows come from w_f; only the right-hand side needs snapshot 2's
        sl.reduced_ode_residual(traj, 2, w_f, acc_v)
        called_with(traj.snapshots[2:3])

    @pytest.mark.parametrize("N", [4096, 2**14])
    def test_correction_bitwise_exp_formula(self, N):
        # the right-hand side keeps the operand order (factor, R)
        traj = free_pair_trajectory(t_end=8.0, L=700.0, N=N)
        w_f, _, _, acc_v = sl.corrected_spectra(traj)
        m = 4
        t_lo, t_mid, t_hi = traj.times[m - 1 : m + 2]
        h_minus, h_plus = t_mid - t_lo, t_hi - t_mid
        deriv = (h_minus**2 * (w_f[m + 1] - w_f[m]) + h_plus**2 * (w_f[m] - w_f[m - 1])) / (
            h_minus * h_plus * (h_minus + h_plus)
        )
        pair = sl.profile_spectra(traj.snapshots[m : m + 1])[0]
        inp = TrilinearInput(*(sl.ComplexField(traj.grid, row, "spectral") for row in pair), t_mid)
        rhs = np.multiply(np.exp(1j * RESONANT_COEFF * acc_v.values[m]), sl.remainder_physical(inp).samples)
        expect = sl.norm_L2(sl.ComplexField(traj.grid, deriv - rhs, "spectral"))
        assert expect > 0
        assert sl.reduced_ode_residual(traj, m, w_f, acc_v) == expect

    def test_boundary_index_rejected(self, richardson_traj):
        w_f, _, _, acc_v = sl.corrected_spectra(richardson_traj)
        with pytest.raises(ValueError):
            sl.reduced_ode_residual(richardson_traj, 0, w_f, acc_v)
        with pytest.raises(ValueError):
            sl.reduced_ode_residual(richardson_traj, len(richardson_traj.snapshots) - 1, w_f, acc_v)


class TestEstimateLimit:
    def test_time_constant_series(self):
        grid = sl.Grid1D(L=30.0, N=128)
        rng = np.random.default_rng(3)
        z = grid.xi / 0.5
        f = sl.ComplexField(grid, np.exp(-(z**2) / 2) * (1 + 0.1 * z), "spectral")
        times = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        est = sl.estimate_limit(times, [f.samples] * len(times), grid, n=1)
        assert np.array_equal(est.W.samples, f.samples)
        assert est.fit_linf is None  # differences identically zero
        assert all(d == 0.0 for _, d in est.cauchy)

    def test_linear_case_limit_matches_initial_spectrum(self):
        # v = 0 decouples u: the corrected spectrum is static at e^{i xi^2} u1hat
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.3 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        params = sl.AnalysisParams.make(epsilon=0.3)
        snaps = tuple(
            sl.PairState(sl.free_evolve(u1, t - 1.0), zero, float(t))
            for t in sl.geometric_schedule(32.0)
        )
        traj = sl.Trajectory(grid=grid, params=params, snapshots=snaps, dt=0.1)
        w_f = sl.corrected_spectra(traj)[0]
        est = sl.estimate_limit(traj.times, w_f, grid, n=1)
        u1_hat = sl.fourier_forward(u1)
        expect = np.exp(1j * grid.xi**2) * u1_hat.samples
        assert np.max(np.abs(est.W.samples - expect)) < 1e-11

    def test_window_shorter_than_decade_rejected(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        times = np.array([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(ValueError, match="decade"):
            sl.estimate_limit(times, [f.samples] * len(times), grid, n=1)

    def test_distances_and_fit_window(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        times = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        rows = [f.samples * (1 + 1 / t) for t in times]
        est = sl.estimate_limit(times, rows, grid, n=1)
        W = sl.ComplexField(grid, rows[-1], "spectral")
        assert np.array_equal(est.W.samples, W.samples)
        assert np.array_equal(est.gamma_limit, sl.phase_offset(times, rows)[-1])
        for i, w in enumerate(rows):
            diff = sl.ComplexField(grid, w - W.samples, "spectral")
            assert est.diff_linf[i] == sl.norm_Linf(diff)
            assert est.diff_h0n[i] == sl.norm_H0n(diff, 1, scale=sl.norm_Linf(W))
        assert est.diff_linf[-1] == 0.0
        early = times <= 16.0
        assert est.fit_linf == sl.fit_rate(times[early], est.diff_linf[early])
        assert est.fit_h0n == sl.fit_rate(times[early], est.diff_h0n[early])
        assert est.fit_linf.window == (1.0, 16.0)

    def test_cauchy_pairs_matching(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        times = np.array([1.0, 2.0, 4.0, 8.0])
        pairs = _cauchy_pairs(times, [f.samples / t for t in times])
        assert [t for t, _ in pairs] == [1.0, 2.0, 4.0]
        # |f/2t - f/t| = |f| / 2t
        for t, d in pairs:
            assert abs(d - np.max(np.abs(f.samples)) / (2 * t)) < 1e-14

    def test_cauchy_pairs_take_the_nearest_partner(self):
        # 2(1 - 5e-10) and 2 both match 2 * 1 within the tolerance; t = 1
        # pairs with 2 itself, and 2(1 - 5e-10) with 4
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        times = np.array([1.0, 2.0 * (1 - 5e-10), 2.0, 4.0])
        pairs = _cauchy_pairs(times, [f.samples / t for t in times])
        assert [t for t, _ in pairs] == list(times[:3])
        peak = np.max(np.abs(f.samples))
        for (t, d), partner in zip(pairs, (2.0, 4.0, 4.0)):
            assert abs(d - peak * (1 / t - 1 / partner)) < 1e-14, t


class TestPhaseOffset:
    def test_constant_modulus_gives_zero(self):
        traj = free_pair_trajectory(t_end=32.0)
        w_g = sl.corrected_spectra(traj)[1]
        gammas = sl.phase_offset(traj.times, w_g)
        assert gammas.shape == (len(traj.snapshots), traj.grid.N)
        assert np.max(np.abs(gammas[-1])) < 1e-12
        for gamma in gammas:
            assert np.max(np.abs(gamma)) < 1e-12

    def test_synthetic_inverse_time_modulus(self):
        # |w(t)|^2 = c + b/t  =>  gamma(t) = b (1 - 1/t) - b ln(t)/t
        grid = sl.Grid1D(L=16.0, N=64)
        c, b = 0.3, 0.5
        times = np.geomspace(1.0, 64.0, 97)
        rows = [np.full(grid.N, np.sqrt(c + b / t), dtype=complex) for t in times]
        gammas = sl.phase_offset(times, rows)
        for t, gamma in zip(times, gammas):
            oracle = b * (1 - 1 / t) - b * np.log(t) / t
            assert np.max(np.abs(gamma - oracle)) < 2e-4
        assert np.max(np.abs(gammas[-1] - (b * (1 - 1 / 64.0) - b * np.log(64.0) / 64.0))) < 2e-4

    def test_identity_with_accumulator(self, richardson_traj):
        # gamma + |w|^2 ln t recomposes the running integral exactly
        _, w_g, _, acc_v = sl.corrected_spectra(richardson_traj)
        gammas = sl.phase_offset(richardson_traj.times, w_g)
        for m, t in enumerate(richardson_traj.times):
            recomposed = gammas[m] + np.abs(w_g[m]) ** 2 * np.log(t)
            assert np.max(np.abs(recomposed - acc_v.values[m])) < 1e-12


class TestExchangeSymmetry:
    def test_swapped_run_swaps_analysis(self):
        grid = sl.Grid1D(L=480.0, N=4096)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.15, 3.0)
        params = sl.AnalysisParams.make(epsilon=0.15)
        sched = sl.geometric_schedule(12.0)
        t1 = sl.evolve(sl.PairState(u1, v1, 1.0), 12.0, 0.02, sched, params)
        t2 = sl.evolve(sl.PairState(v1, u1, 1.0), 12.0, 0.02, sched, params)
        sf1, sg1, _, _ = sl.corrected_spectra(t1)
        sf2, sg2, _, _ = sl.corrected_spectra(t2)
        assert np.array_equal(t1.times, t2.times)
        assert len(sf1) == len(sg2) == len(sg1) == len(sf2)
        for wa, wb in zip(sf1, sg2):
            assert np.array_equal(wa, wb)
        for wa, wb in zip(sg1, sf2):
            assert np.array_equal(wa, wb)


class TestAnalysis:
    def test_estimates_own_their_arrays(self):
        # a view into the phase-offset rows would keep every row alive
        # through the ray pass
        analysis = sl.analyze_trajectory(free_pair_trajectory(t_end=32.0))
        for est in (analysis.est_u, analysis.est_v):
            assert est.gamma_limit.base is None
            assert est.W.samples.base is None


def log_trapezoid_rows(times, squares):
    """The running log-time trapezoid as one (M, N) block."""
    out = np.zeros_like(squares)
    sigma = np.log(times)
    for m in range(1, len(times)):
        out[m] = out[m - 1] + 0.5 * (sigma[m] - sigma[m - 1]) * (squares[m] + squares[m - 1])
    return out


def sequential_analysis(traj):
    """The analysis on one thread from whole blocks: the profile block, each
    side's (M, N) squares and trapezoid, np.exp corrections, the offset
    block's last row as Gamma, band_rows zero-padded to N points for the
    rays and np.exp in the closed form over all N.  Returns the corrected
    sides, ((values, quadrature error) of u, of v), the (W, Gamma) of u and
    of v, and the two closed-form gap series."""
    times = traj.times
    backs = [_cis(s.t * traj.grid.xi**2) for s in traj.snapshots]
    block = np.array(
        [[sl.fourier_forward(f).samples * back for f in (s.u, s.v)] for s, back in zip(traj.snapshots, backs)]
    )
    accs = []
    for side in (0, 1):
        sq = np.abs(block[:, side]) ** 2
        values = log_trapezoid_rows(times, sq)
        err = float(np.max(np.abs(values[::2] - log_trapezoid_rows(times[::2], sq[::2])))) / 3.0
        accs.append((values, err))
    (phi_u, _), (phi_v, _) = accs
    w_f = np.array([np.multiply(row, np.exp(1j * RESONANT_COEFF * phi)) for row, phi in zip(block[:, 0], phi_v)])
    w_g = np.array([np.multiply(row, np.exp(1j * RESONANT_COEFF * phi)) for row, phi in zip(block[:, 1], phi_u)])
    limits = []
    for rows in (w_f, w_g):
        sq = np.abs(rows) ** 2
        offsets = log_trapezoid_rows(times, sq)
        for m, t in enumerate(times):
            offsets[m] -= sq[m] * np.log(t)
        limits.append((rows[-1], offsets[-1]))
    (W_u, gamma_u), (W_v, gamma_v) = limits
    gaps = np.full((2, len(times)), np.nan)
    for i, (t, state) in enumerate(zip(times, traj.snapshots)):
        try:
            window = band_rows(traj.grid, [W_u, W_v, gamma_u, gamma_v], t)
        except sl.FrequencyRangeError:
            continue
        w_u, w_v, ray_gamma_u, ray_gamma_v = zero_padded(traj.grid, *window)
        for k, (actual, own, other, gamma) in enumerate(
            ((state.u, w_u, w_v, ray_gamma_v), (state.v, w_v, w_u, ray_gamma_u))
        ):
            phase = traj.grid.x**2 / (4.0 * t) - RESONANT_COEFF * (np.abs(other) ** 2 * np.log(t) + gamma.real)
            closed = (2j * t) ** (-0.5) * own * np.exp(1j * phase)
            gaps[k, i] = np.max(np.abs(actual.samples - closed))
    return (w_f, w_g), accs, limits, gaps


def coupled_trajectory(N):
    grid = sl.Grid1D(L=480.0, N=N)
    u1, v1 = sl.initial_pair(grid, "gaussian", 0.15, 3.0)
    params = sl.AnalysisParams.make(epsilon=0.15)
    return sl.evolve(sl.PairState(u1, v1, 1.0), 16.0, 0.05, sl.geometric_schedule(16.0), params)


class LaneFault(RuntimeError):
    pass


class TestLanes:
    @pytest.mark.parametrize("N", [4096, 2**14])
    def test_match_sequential_reference_bitwise(self, N):
        traj = coupled_trajectory(N)
        (ref_f, ref_g), ref_accs, ref_limits, ref_gaps = sequential_analysis(traj)
        w_f, w_g, acc_u, acc_v = sl.corrected_spectra(traj)
        assert np.array_equal(bits(w_f), bits(ref_f)) and np.array_equal(bits(w_g), bits(ref_g))
        for acc, (values, err) in zip((acc_u, acc_v), ref_accs):
            assert np.array_equal(bits(acc.values), bits(values))
            assert acc.quadrature_error == err > 0
        analysis = sl.analyze_trajectory(traj)
        for est, (W, gamma), rows in zip((analysis.est_u, analysis.est_v), ref_limits, (ref_f, ref_g)):
            assert np.array_equal(bits(est.W.samples), bits(W))
            assert np.array_equal(bits(est.gamma_limit), bits(gamma))
            assert np.array_equal(est.diff_linf, np.max(np.abs(rows - W), axis=1))
        assert np.count_nonzero(np.isfinite(ref_gaps[0])) >= 2
        assert ray_band(traj.grid, limit_spectra(analysis)).N < N
        assert np.array_equal(analysis.asym_u, ref_gaps[0], equal_nan=True)
        assert np.array_equal(analysis.asym_v, ref_gaps[1], equal_nan=True)

    def test_bitwise_under_frequent_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_match_sequential_reference_bitwise(4096)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("wrong", ["u", "v"])
    def test_lane_error_reaches_caller(self, wrong, monkeypatch):
        # u's lane is the calling thread, v's the worker (the profile fill's
        # even and odd snapshots); each stage's call on the wrong lane raises,
        # and the analysis runs on a watched thread so that a hang fails
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        stages = [
            (remainder, "_profile_rows"),
            (scattering, "_accumulate"),
            (scattering, "_correct"),
            (scattering, "estimate_limit"),
            (scattering, "_closed_form_gap"),
        ]
        for module, name in stages:
            work = getattr(module, name)

            def failing(*args, work=work, name=name):
                on_worker = threading.current_thread().name.startswith("scatterlab-lane")
                if on_worker == (wrong == "v"):
                    raise LaneFault(name)
                return work(*args)

            monkeypatch.setattr(module, name, failing)
            raised = []

            def call():
                try:
                    sl.analyze_trajectory(traj)
                except Exception as exc:
                    raised.append(exc)

            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive(), name
            assert len(raised) == 1 and type(raised[0]) is LaneFault and str(raised[0]) == name
            assert not [t.name for t in threading.enumerate() if t.name.startswith("scatterlab-lane")]
            monkeypatch.undo()

    def test_series_and_limits_split_by_component(self, monkeypatch):
        # u's norm series and limit estimate on the calling thread, v's on
        # the worker; the series are bitwise the one-thread loops
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        calls = {}
        for name in ("_norm_series", "estimate_limit"):
            work = getattr(scattering, name)

            def watched(*args, work=work, name=name):
                out = work(*args)
                calls[name, threading.current_thread() is threading.main_thread()] = (args, out)
                return out

            monkeypatch.setattr(scattering, name, watched)
        analysis = sl.analyze_trajectory(traj)
        assert len(calls) == 4
        (fields_u,), _ = calls["_norm_series", True]
        (fields_v,), _ = calls["_norm_series", False]
        assert all(fu is s.u and fv is s.v for fu, fv, s in zip(fields_u, fields_v, traj.snapshots, strict=True))
        assert calls["estimate_limit", True][1] is analysis.est_u
        assert calls["estimate_limit", False][1] is analysis.est_v
        for side, linf, mass in (("u", analysis.u_linf, analysis.u_mass), ("v", analysis.v_linf, analysis.v_mass)):
            fields = [getattr(s, side) for s in traj.snapshots]
            assert np.array_equal(bits(linf), bits(np.array([sl.norm_Linf(f) for f in fields])))
            assert np.array_equal(bits(mass), bits(np.array([sl.norm_L2(f) ** 2 for f in fields])))

    @pytest.mark.parametrize("name", ["_norm_series"])
    @pytest.mark.parametrize("wrong", ["u", "v"])
    def test_series_and_limits_lane_error_reaches_caller(self, wrong, name, monkeypatch):
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        work = getattr(scattering, name)

        def failing(*args):
            if threading.current_thread().name.startswith("scatterlab-lane") == (wrong == "v"):
                raise LaneFault(name)
            return work(*args)

        monkeypatch.setattr(scattering, name, failing)
        raised = []

        def call():
            try:
                sl.analyze_trajectory(traj)
            except Exception as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1 and type(raised[0]) is LaneFault
        assert not [t.name for t in threading.enumerate() if t.name.startswith("scatterlab-lane")]

    def test_analysis_peak_memory(self):
        # the traced peak (tracemalloc sees numpy's buffers) stays within the
        # profile block, both phase accumulators and ROWS rows of N complex
        # samples: an (M, N) block of squares or offsets exceeds it
        ROWS = 10
        traj = free_pair_trajectory(t_end=256.0, L=700.0, N=4096)
        m, n = len(traj.snapshots), traj.grid.N
        assert m == 33
        tracemalloc.start()
        try:
            sl.analyze_trajectory(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block, accumulators, row = m * 2 * n * 16, 2 * m * n * 8, n * 16
        assert peak < block + accumulators + ROWS * row, (peak - block - accumulators) / row


class TestAsymptoticResidual:
    def test_zero_solution(self):
        # estimates exist (zero fields); the residual must be exactly zero
        analysis = sl.analyze_trajectory(zero_trajectory())
        assert analysis.asym_u[-1] == 0.0
        assert analysis.asym_v[-1] == 0.0

    def test_range_guard(self):
        # the early times' rays leave the frequency grid: those rows are NaN
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=2048)
        analysis = sl.analyze_trajectory(traj)
        rejected = []
        for t in traj.times:
            try:
                _check_rays(traj.grid, t)
                rejected.append(False)
            except sl.FrequencyRangeError:
                rejected.append(True)
        assert rejected[0] and not all(rejected)
        assert np.array_equal(np.isnan(analysis.asym_u), rejected)
        assert np.array_equal(np.isnan(analysis.asym_v), rejected)
        with pytest.raises(sl.FrequencyRangeError, match="enlarge N"):
            _check_rays(traj.grid, 1.0)


def limit_spectra(analysis):
    """The analysis' four spectral limits (W_u, W_v, Gamma_u, Gamma_v)."""
    est_u, est_v = analysis.est_u, analysis.est_v
    return [est_u.W.samples, est_v.W.samples, est_u.gamma_limit, est_v.gamma_limit]


class TestRayAnalysis:
    def test_analysis_matches_residual_bitwise(self):
        # reference: one spectrum_at call per band limit and time
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        analysis = sl.analyze_trajectory(traj)
        usable = np.isfinite(analysis.asym_u)
        assert np.count_nonzero(usable) >= 2
        assert np.array_equal(usable, np.isfinite(analysis.asym_v))
        for i in np.nonzero(usable)[0]:
            t = traj.times[i]
            lo, hi, (w_u, w_v, gamma_u, gamma_v) = band_rows(traj.grid, limit_spectra(analysis), t, single=True)
            state = traj.snapshots[i]
            assert _closed_form_gap(state.u, t, lo, hi, w_u, w_v, gamma_v) == analysis.asym_u[i]
            assert _closed_form_gap(state.v, t, lo, hi, w_v, w_u, gamma_u) == analysis.asym_v[i]

    def test_four_spectra_per_time(self, monkeypatch):
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        plans = []
        calls = []  # (rows, plans built, earlier results still alive)
        spectra = []

        def counting_plan(*args):
            plans.append(args)
            return plan(*args)

        def counting(fields, *geometry):
            alive = sum(ref() is not None for ref in spectra)
            built = len(plans)
            out = sl.spectrum_at(fields, *geometry)
            calls.append((len(out), len(plans) - built, alive))
            spectra.extend(weakref.ref(row) for row in out)
            return out

        plan = propagator._bluestein_plan
        monkeypatch.setattr(propagator, "_bluestein_plan", counting_plan)
        monkeypatch.setattr(scattering, "spectrum_at", counting)
        analysis = sl.analyze_trajectory(traj)
        usable = traj.times[np.isfinite(analysis.asym_u)]
        assert len(usable) >= 2
        # four rows on one plan per time; the previous time's are gone first
        assert calls == [(4, 1, 0)] * len(usable)
        # and the analysis holds none of them
        assert all(ref() is None for ref in spectra)
        # each plan is built for the band's points and the rays inside it
        band = ray_band(traj.grid, limit_spectra(analysis))
        assert band.N < traj.grid.N
        expected = [(band.N, np.count_nonzero(in_band(traj.grid, t, band))) for t in usable]
        assert [(args[0], args[-1]) for args in plans] == expected
        assert expected[0][1] < traj.grid.N  # the first usable time's rays pass the band

    def test_decoupled_case_has_no_edge_warning(self):
        # v = 0 and u free: f - W is transform round-off, whose edge is noise
        grid = sl.Grid1D(L=300.0, N=4096)
        u1 = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        snaps = tuple(
            sl.PairState(sl.free_evolve(u1, t - 1.0), zero, t)
            for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        )
        traj = sl.Trajectory(
            grid=grid, params=sl.AnalysisParams.make(epsilon=1.0), snapshots=snaps, dt=float("nan")
        )
        analysis = sl.analyze_trajectory(traj)  # the suite turns the warning into an error
        assert np.all(analysis.wf_diff_h0n < 1e-10)


def gap_rows(traj, monkeypatch):
    """The analysis of traj, and what each closed-form gap received:
    {(i, component): (lo, hi, own W, other W, other Gamma)} for snapshot i,
    the rows on the window lo:hi of rays."""
    rows = {}
    work = scattering._closed_form_gap

    def recording(actual, t, lo, hi, w_own, w_other, gamma_other):
        i = int(np.flatnonzero(traj.times == t)[0])
        rows[i, "u" if actual is traj.snapshots[i].u else "v"] = (lo, hi, w_own, w_other, gamma_other)
        return work(actual, t, lo, hi, w_own, w_other, gamma_other)

    monkeypatch.setattr(scattering, "_closed_form_gap", recording)
    return sl.analyze_trajectory(traj), rows


def full_grid_rows(traj, analysis, i):
    """Rows of the full-grid evaluation at snapshot i, in gap_rows' layout."""
    fields = [sl.ComplexField(traj.grid, s, "spectral") for s in limit_spectra(analysis)]
    every_ray = np.ones(traj.grid.N, dtype=bool)
    w_u, w_v, gamma_u, gamma_v = sl.spectrum_at(fields, *ray_geometry(traj.grid, traj.times[i], every_ray))
    return {"u": (w_u, w_v, gamma_v), "v": (w_v, w_u, gamma_u)}


class TestRayBand:
    @pytest.mark.parametrize(
        "case, w_bound, gamma_bound, gap_bound",
        # measured: 1.3e-14, 1.5e-17, 1.5e-15 / 6.8e-15, 3.0e-17, 3.0e-16 /
        # 1.6e-15, 1.4e-15, 1.6e-16 / 5.2e-14, 2.8e-18, 1.0e-14
        [
            ("free", 1e-12, 5e-17, 5e-14),
            ("free_offgrid", 1e-12, 1e-16, 2e-13),
            ("coupled", 1e-12, 1e-13, 3e-13),
            ("linear", 2e-13, 1e-17, 3e-14),
        ],
    )
    def test_rows_agree_with_full_grid(self, case, w_bound, gamma_bound, gap_bound, monkeypatch, request):
        # the band rows against spectrum_at of the same limits on the whole
        # grid, relative to the largest |W|: W rows, Gamma rows (over |W|^2)
        # and the gaps.  free_offgrid's grid (L = 475.2) has nodes that round
        # at ulp(L/2)
        if case == "linear":
            traj = request.getfixturevalue("linear_traj")
        elif case == "coupled":
            traj = coupled_trajectory(4096)
        elif case == "free":
            traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        else:
            traj = free_pair_trajectory(t_end=32.0, L=475.2, N=4096, width=4.0)
        analysis, rows = gap_rows(traj, monkeypatch)
        assert ray_band(traj.grid, limit_spectra(analysis)).N < traj.grid.N
        scale = max(np.max(np.abs(analysis.est_u.W.samples)), np.max(np.abs(analysis.est_v.W.samples)))
        usable = np.flatnonzero(np.isfinite(analysis.asym_u))
        assert len(usable) >= 2 and set(rows) == {(i, c) for i in usable for c in "uv"}
        w_dev = gamma_dev = gap_dev = 0.0
        for i in usable:
            full = full_grid_rows(traj, analysis, i)
            state, t = traj.snapshots[i], traj.times[i]
            for c, asym in (("u", analysis.asym_u), ("v", analysis.asym_v)):
                # the window's rows, 0 on the rays outside it
                lo, hi, *window = rows[i, c]
                own, other, gamma = zero_padded(traj.grid, lo, hi, window)
                w_dev = max(w_dev, np.max(np.abs(own - full[c][0])), np.max(np.abs(other - full[c][1])))
                gamma_dev = max(gamma_dev, np.max(np.abs(gamma - full[c][2])))
                gap_dev = max(gap_dev, abs(asym[i] - _closed_form_gap(getattr(state, c), t, 0, traj.grid.N, *full[c])))
        assert w_dev <= w_bound * scale
        assert gamma_dev <= gamma_bound * scale**2
        assert gap_dev <= gap_bound * scale

    def test_full_band_is_the_full_grid(self, monkeypatch):
        # at N = 1800 the limits' spectra exceed LIMIT_FLOOR of their peaks
        # up to the band edge: the band is the grid, every window is all N
        # rays, and every row is bitwise the full-grid evaluation's
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=1800)
        plans = []
        plan = propagator._bluestein_plan

        def counting_plan(*args):
            plans.append(args)
            return plan(*args)

        monkeypatch.setattr(propagator, "_bluestein_plan", counting_plan)
        analysis, rows = gap_rows(traj, monkeypatch)
        assert ray_band(traj.grid, limit_spectra(analysis)).N == traj.grid.N
        usable = np.flatnonzero(np.isfinite(analysis.asym_u))
        assert len(usable) >= 2 and set(rows) == {(i, c) for i in usable for c in "uv"}
        assert [(args[0], args[-1]) for args in plans] == [(traj.grid.N, traj.grid.N)] * len(usable)
        monkeypatch.undo()
        for i in usable:
            full = full_grid_rows(traj, analysis, i)
            for c in "uv":
                lo, hi, *window = rows[i, c]
                assert (lo, hi) == (0, traj.grid.N)
                for got, want in zip(window, full[c], strict=True):
                    assert np.array_equal(bits(got), bits(want))


def direct_sums(fields, xi):
    """(dx/sqrt(2 pi)) sum_j phi_j e^{-i x_j xi} of each physical field at
    the extended-precision frequencies xi, with the sources x_j = x_0 + j dx
    and every phase reduced mod 2 pi in extended precision; 1024 frequencies
    at a time."""
    ld = np.longdouble
    g = fields[0].grid
    x = ld(g.x[0]) + ld(g.dx) * np.arange(g.N, dtype=ld)
    two_pi = 8 * np.arctan(ld(1))
    phi = np.array([f.samples for f in fields])
    out = np.empty((len(fields), xi.size), dtype=complex)
    for s in range(0, xi.size, 1024):
        angle = np.mod(-np.multiply.outer(xi[s : s + 1024], x), two_pi)
        out[:, s : s + 1024] = phi @ np.exp(1j * angle.astype(float)).T
    return out * (g.dx / np.sqrt(2 * np.pi))


def quick_solve():
    """The solve of configs/quick.cfg."""
    cfg = sl.parse_config(CONFIGS / "quick.cfg")
    _, params, u1, v1 = sl.build_experiment(cfg)
    schedule = sl.geometric_schedule(cfg.t_end, cfg.schedule_ratio)
    return sl.evolve(sl.PairState(u1, v1, 1.0), cfg.t_end, cfg.dt, schedule, params)


def full_length_gap(actual, t, w_own, w_other, gamma_other):
    """The closed-form gap over all N rays from N-point rows, as it was
    computed before the gap took the rays' window."""
    phase = actual.grid.x**2 / (4.0 * t) - RESONANT_COEFF * (np.abs(w_other) ** 2 * np.log(t) + gamma_other.real)
    closed = (2j * t) ** (-0.5) * w_own * _cis(phase)
    return float(np.max(np.abs(actual.samples - closed)))


class TestGapWindow:
    @pytest.mark.parametrize("case", ["linear", "quick", "full_band"])
    def test_gaps_bitwise_the_full_length_formula(self, case, monkeypatch, request):
        # the closed form is 0 on the rays outside the window, so the gap
        # there is |actual|: every gap is bitwise the full-length formula's
        # on the window's rows zero-padded to N points.  At N = 1800 the
        # window is the whole grid
        if case == "linear":
            traj = request.getfixturevalue("linear_traj")
        elif case == "quick":
            traj = quick_solve()
        else:
            traj = free_pair_trajectory(t_end=32.0, L=700.0, N=1800)
        analysis, rows = gap_rows(traj, monkeypatch)
        usable = np.flatnonzero(np.isfinite(analysis.asym_u))
        assert len(usable) >= 2 and set(rows) == {(i, c) for i in usable for c in "uv"}
        widths = set()
        for i in usable:
            state, t = traj.snapshots[i], traj.times[i]
            for c, asym in (("u", analysis.asym_u), ("v", analysis.asym_v)):
                lo, hi, *window = rows[i, c]
                widths.add(hi - lo)
                assert asym[i] == full_length_gap(getattr(state, c), t, *zero_padded(traj.grid, lo, hi, window))
        if case == "full_band":
            assert widths == {traj.grid.N}
        else:
            assert min(widths) < traj.grid.N

    @pytest.mark.parametrize(
        "lo, hi, peak",
        [(10, 40, 2), (10, 40, 50), (10, 40, 20), (0, 20, 60), (30, 64, 5), (0, 64, 33)],
        ids=["left", "right", "inside", "at_start", "at_end", "whole_grid"],
    )
    def test_gap_reads_actual_outside_the_window(self, lo, hi, peak):
        # the field's largest sample, at index peak, sets the gap; on the
        # solved data the gap peaks inside the window, so this is where a gap
        # that skipped either side of it would show
        grid = sl.Grid1D(L=20.0, N=64)
        rng = np.random.default_rng(100 * lo + hi)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        samples[peak] = 10.0
        actual = sl.ComplexField(grid, samples, "physical")
        rows = rng.normal(size=(3, hi - lo)) + 1j * rng.normal(size=(3, hi - lo))
        gap = _closed_form_gap(actual, 3.0, lo, hi, *rows)
        assert gap == full_length_gap(actual, 3.0, *zero_padded(grid, lo, hi, rows))
        if not lo <= peak < hi:
            assert gap == 10.0


class TestRayAccuracy:
    def test_rows_match_extended_precision_sums_at_the_rays(self, monkeypatch):
        # on the quick solve, every row a closed-form gap receives is within
        # 1e-14 of the largest |W| (Gamma rows: of its square) of the direct
        # sum of the band limits at the rays x_j/2t, x_j = -L/2 + j dx, all
        # in extended precision; at every usable time, inexact 2^(k/4) ones
        # included.  The window is exactly the rays inside the band.
        # Measured: 1.6e-15 for W and 7e-17 for Gamma
        traj = quick_solve()
        analysis, rows = gap_rows(traj, monkeypatch)
        grid = traj.grid
        usable = np.flatnonzero(np.isfinite(analysis.asym_u))
        assert len(usable) >= 8 and set(rows) == {(i, c) for i in usable for c in "uv"}
        times = traj.times[usable]
        assert any(0 < abs(t - 2.0 ** round(np.log2(t))) <= 1e-12 * t for t in times)
        fields = band_fields(grid, limit_spectra(analysis))
        band = fields[0].grid
        assert band.N < grid.N
        peak = max(np.max(np.abs(analysis.est_u.W.samples)), np.max(np.abs(analysis.est_v.W.samples)))
        nodes = np.longdouble(grid.x[0]) + np.longdouble(grid.dx) * np.arange(grid.N, dtype=np.longdouble)
        w_dev = gamma_dev = 0.0
        for i, t in zip(usable, times):
            inside = in_band(grid, t, band)
            w_u, w_v, gamma_u, gamma_v = direct_sums(fields, nodes[inside] / (2 * np.longdouble(t)))
            for c, want in (("u", (w_u, w_v, gamma_v)), ("v", (w_v, w_u, gamma_u))):
                lo, hi, own, other, gamma = rows[i, c]
                assert np.array_equal(np.flatnonzero(inside), np.arange(lo, hi))
                w_dev = max(w_dev, np.max(np.abs(own - want[0])), np.max(np.abs(other - want[1])))
                gamma_dev = max(gamma_dev, np.max(np.abs(gamma - want[2])))
        assert w_dev <= 1e-14 * peak, w_dev / peak
        assert gamma_dev <= 1e-14 * peak**2, gamma_dev / peak**2


class TestInterpolationPairs:
    def test_gaussian_values(self):
        grid = sl.Grid1D(L=60.0, N=1024)
        f = sl.ComplexField(grid, np.exp(-grid.x**2 / 2), "physical")
        pairs = sl.interpolation_pairs(f, n=1)
        lhs, rhs = pairs["l1"]
        assert abs(lhs - np.sqrt(2 * np.pi)) < 1e-10
        # measured sharp ratio for the Gaussian is about 2.239: above the
        # nominal constant 2, below the provable 2*sqrt(2)
        assert lhs / rhs > sl.scattering.L1_INTERP_CONSTANT
        assert lhs / rhs < sl.scattering.L1_INTERP_CONSTANT_SAFE

    def test_lorentzian_attains_sharp_constant(self):
        grid = sl.Grid1D(L=4000.0, N=2**16)
        f = sl.ComplexField(grid, 1.0 / (1.0 + grid.x**2), "physical")
        with pytest.warns(sl.EdgeMassWarning):  # the weighted pair sees the slow tail
            lhs, rhs = sl.interpolation_pairs(f, n=0)["l1"]
        assert abs(lhs / rhs - np.sqrt(2 * np.pi)) < 1e-3

    def test_holder_step_exact(self):
        grid = sl.Grid1D(L=60.0, N=512)
        rng = np.random.default_rng(11)
        for seed in range(20):
            z = grid.x / 2.0
            coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
            f = sl.ComplexField(
                grid, np.exp(-(z**2) / 2) * sum(c * z**j for j, c in enumerate(coeff)), "physical"
            )
            for n in (0, 1, 2):
                lhs, rhs = sl.interpolation_pairs(f, n)["holder_step"]
                assert lhs <= rhs * (1 + 1e-12)

    def test_point_mass_scaling(self):
        grid = sl.Grid1D(L=16.0, N=64)
        spike = np.zeros(64, dtype=complex)
        spike[40] = 1.0
        f = sl.ComplexField(grid, spike, "physical")
        base = sl.interpolation_pairs(f, n=1)
        scaled = sl.interpolation_pairs(f.with_samples(3.0 * spike), n=1)
        for key in base:
            assert abs(scaled[key][0] - 3.0 * base[key][0]) < 1e-12
            assert abs(scaled[key][1] - 3.0 * base[key][1]) < 1e-12
