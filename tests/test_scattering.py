import weakref

import numpy as np
import pytest

import scatterlab as sl
import scatterlab.propagator as propagator
import scatterlab.scattering as scattering
from scatterlab.remainder import RESONANT_COEFF
from scatterlab.propagator import _ray_targets
from scatterlab.scattering import PhaseAccumulator, _cauchy_pairs, _closed_form_gap
from conftest import coarsen


def zero_trajectory(t_end=16.0):
    grid = sl.Grid1D(L=16.0, N=64)
    zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
    params = sl.AnalysisParams.make(epsilon=0.0)
    snaps = tuple(
        sl.PairState(zero, zero, float(t)) for t in sl.geometric_schedule(t_end)
    )
    return sl.Trajectory(grid=grid, params=params, snapshots=snaps, dt=0.1)


def free_pair_trajectory(t_end=32.0, L=700.0, N=4096):
    """Both components freely evolved: every |profile spectrum| is constant."""
    grid = sl.Grid1D(L=L, N=N)
    u1 = sl.ComplexField(grid, 0.3 * np.exp(-grid.x**2 / 2), "physical")
    v1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 3), "physical")
    params = sl.AnalysisParams.make(epsilon=0.3)
    snaps = []
    for t in sl.geometric_schedule(t_end):
        snaps.append(
            sl.PairState(sl.free_evolve(u1, t - 1.0), sl.free_evolve(v1, t - 1.0), float(t))
        )
    return sl.Trajectory(grid=grid, params=params, snapshots=tuple(snaps), dt=0.1)


class TestProfile:
    def test_profile_at_unit_time(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 2.0)
        f, g = sl.profile(sl.PairState(u1, v1, 1.0))
        expect = sl.free_evolve(u1, -1.0)
        assert np.max(np.abs(f.samples - expect.samples)) < 1e-13

    def test_profile_round_trip(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 2.0)
        state = sl.PairState(sl.free_evolve(u1, 2.5), sl.free_evolve(v1, 2.5), 3.5)
        f, _ = sl.profile(state)
        back = sl.free_evolve(f, 3.5)
        assert np.max(np.abs(back.samples - state.u.samples)) < 1e-12

    def test_profile_static_for_free_solution(self):
        traj = free_pair_trajectory(t_end=16.0)
        f0, _ = sl.profile(traj.snapshots[0])
        for s in traj.snapshots[1:]:
            f, _ = sl.profile(s)
            assert np.max(np.abs(f.samples - f0.samples)) < 1e-12


class TestAccumulatePhase:
    def test_zero_trajectory(self):
        acc_u, acc_v = sl.corrected_spectra(zero_trajectory())[2:]
        for acc in (acc_u, acc_v):
            assert np.all(acc.values == 0)
            assert np.all(acc.correction_at(acc.times[-1]) == 1.0)

    def test_constant_modulus_gives_log_growth(self):
        # free evolution keeps |vhat| fixed, so the integral is |vhat|^2 ln t
        # and the log-time trapezoid is exact on constants
        traj = free_pair_trajectory(t_end=32.0)
        acc_u, acc_v = sl.corrected_spectra(traj)[2:]
        vhat1 = sl.fourier_forward(traj.snapshots[0].v)
        expect = np.abs(vhat1.samples) ** 2 * np.log(traj.times[-1])
        got = acc_v.value_at(traj.times[-1])
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

    def test_unknown_time_rejected(self, richardson_traj):
        acc = sl.corrected_spectra(richardson_traj)[2]
        with pytest.raises(ValueError):
            acc.value_at(3.1415)


class TestPhaseCorrection:
    def test_zero_accumulator_is_identity(self):
        traj = zero_trajectory()
        acc = sl.corrected_spectra(traj)[3]
        grid = traj.grid
        f_hat = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        w = sl.apply_phase_correction(f_hat, acc, 1.0)
        assert np.array_equal(w.samples, f_hat.samples)

    def test_modulus_preserved(self, richardson_traj):
        acc = sl.corrected_spectra(richardson_traj)[3]
        state = richardson_traj.snapshots[5]
        f_hat, _ = sl.profile_spectra(state)
        w = sl.apply_phase_correction(f_hat, acc, state.t)
        assert np.max(np.abs(np.abs(w.samples) - np.abs(f_hat.samples))) < 1e-15

    def test_explicit_half_turn(self):
        # accumulated integral of pi / RESONANT_COEFF flips the sign
        grid = sl.Grid1D(L=16.0, N=64)
        values = np.zeros((2, 64))
        values[1] = np.pi / RESONANT_COEFF
        acc = PhaseAccumulator(grid, np.array([1.0, 2.0]), values, "v", 0.0)
        f_hat = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        w = sl.apply_phase_correction(f_hat, acc, 2.0)
        assert np.max(np.abs(w.samples + f_hat.samples)) < 1e-14


class TestReducedOde:
    def test_zero_trajectory(self):
        traj = zero_trajectory()
        assert sl.reduced_ode_residual(traj, 2) == 0.0

    def test_linear_case_small(self):
        # v = 0: both the derivative and the right-hand side vanish
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        params = sl.AnalysisParams.make(epsilon=0.2)
        sched = sl.geometric_schedule(21.0)
        traj = sl.evolve(sl.PairState(u1, zero, 1.0), 21.0, 0.05, sched, params)
        assert sl.reduced_ode_residual(traj, 5) < 1e-11

    def test_profile_spectra_once_per_snapshot(self, monkeypatch):
        traj = zero_trajectory()
        acc_v = sl.corrected_spectra(traj)[3]
        calls = []

        def counting(state):
            calls.append(state.t)
            return sl.profile_spectra(state)

        monkeypatch.setattr(scattering, "profile_spectra", counting)
        sl.reduced_ode_residual(traj, 2, acc_v)
        assert calls == [s.t for s in traj.snapshots[1:4]]

    def test_boundary_index_rejected(self, richardson_traj):
        with pytest.raises(ValueError):
            sl.reduced_ode_residual(richardson_traj, 0)
        with pytest.raises(ValueError):
            sl.reduced_ode_residual(richardson_traj, len(richardson_traj.snapshots) - 1)


class TestEstimateLimit:
    def test_time_constant_series(self):
        grid = sl.Grid1D(L=30.0, N=128)
        rng = np.random.default_rng(3)
        z = grid.xi / 0.5
        f = sl.ComplexField(grid, np.exp(-(z**2) / 2) * (1 + 0.1 * z), "spectral")
        series = [(t, f) for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        est = sl.estimate_limit(series, n=1)
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
        series_f, _, _, _ = sl.corrected_spectra(traj)
        est = sl.estimate_limit(series_f, n=1)
        u1_hat = sl.fourier_forward(u1)
        expect = np.exp(1j * grid.xi**2) * u1_hat.samples
        assert np.max(np.abs(est.W.samples - expect)) < 1e-11

    def test_window_shorter_than_decade_rejected(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        series = [(t, f) for t in (1.0, 2.0, 4.0, 8.0)]
        with pytest.raises(ValueError, match="decade"):
            sl.estimate_limit(series, n=1)

    def test_distances_and_fit_window(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        times = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        series = [(t, f.with_samples(f.samples * (1 + 1 / t))) for t in times]
        est = sl.estimate_limit(series, n=1)
        W = series[-1][1]
        assert np.array_equal(est.gamma_limit, sl.phase_offset(series)[1])
        for i, (_, w) in enumerate(series):
            diff = sl.ComplexField(grid, w.samples - W.samples, "spectral")
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
        series = [(t, f.with_samples(f.samples / t)) for t in (1.0, 2.0, 4.0, 8.0)]
        pairs = _cauchy_pairs(series)
        assert [t for t, _ in pairs] == [1.0, 2.0, 4.0]
        # |f/2t - f/t| = |f| / 2t
        for t, d in pairs:
            assert abs(d - np.max(np.abs(f.samples)) / (2 * t)) < 1e-14


class TestPhaseOffset:
    def test_constant_modulus_gives_zero(self):
        traj = free_pair_trajectory(t_end=32.0)
        _, series_g, _, _ = sl.corrected_spectra(traj)
        gammas, limit = sl.phase_offset(series_g)
        assert np.max(np.abs(limit)) < 1e-12
        for _, gamma in gammas:
            assert np.max(np.abs(gamma)) < 1e-12

    def test_synthetic_inverse_time_modulus(self):
        # |w(t)|^2 = c + b/t  =>  gamma(t) = b (1 - 1/t) - b ln(t)/t
        grid = sl.Grid1D(L=16.0, N=64)
        c, b = 0.3, 0.5
        times = np.geomspace(1.0, 64.0, 97)
        series = []
        for t in times:
            mag = np.sqrt(c + b / t)
            series.append((float(t), sl.ComplexField(grid, np.full(64, mag), "spectral")))
        gammas, limit = sl.phase_offset(series)
        for (t, gamma), t_ref in zip(gammas, times):
            oracle = b * (1 - 1 / t) - b * np.log(t) / t
            assert np.max(np.abs(gamma - oracle)) < 2e-4
        assert np.max(np.abs(limit - (b * (1 - 1 / 64.0) - b * np.log(64.0) / 64.0))) < 2e-4

    def test_identity_with_accumulator(self, richardson_traj):
        # gamma + |w|^2 ln t recomposes the running integral exactly
        series_f, series_g, acc_u, acc_v = sl.corrected_spectra(richardson_traj)
        gammas, _ = sl.phase_offset(series_g)
        for (t, gamma), state in zip(gammas, richardson_traj.snapshots):
            recomposed = gamma + np.abs(
                dict((tt, w) for tt, w in series_g)[t].samples
            ) ** 2 * np.log(t)
            assert np.max(np.abs(recomposed - acc_v.value_at(t))) < 1e-12


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
        for (ta, wa), (tb, wb) in zip(sf1, sg2):
            assert ta == tb
            assert np.array_equal(wa.samples, wb.samples)
        for (ta, wa), (tb, wb) in zip(sg1, sf2):
            assert np.array_equal(wa.samples, wb.samples)


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
                _ray_targets(traj.grid, t)
                rejected.append(False)
            except sl.FrequencyRangeError:
                rejected.append(True)
        assert rejected[0] and not all(rejected)
        assert np.array_equal(np.isnan(analysis.asym_u), rejected)
        assert np.array_equal(np.isnan(analysis.asym_v), rejected)
        with pytest.raises(sl.FrequencyRangeError, match="enlarge N"):
            _ray_targets(traj.grid, 1.0)


class TestRayAnalysis:
    def test_analysis_matches_residual_bitwise(self):
        # reference: one spectrum_at call per spectral-side limit and time
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        analysis = sl.analyze_trajectory(traj)
        est_u, est_v = analysis.est_u, analysis.est_v
        limits = [est_u.W, est_v.W] + [
            sl.ComplexField(traj.grid, e.gamma_limit, "spectral") for e in (est_u, est_v)
        ]
        usable = np.isfinite(analysis.asym_u)
        assert np.count_nonzero(usable) >= 2
        assert np.array_equal(usable, np.isfinite(analysis.asym_v))
        for i in np.nonzero(usable)[0]:
            t = traj.times[i]
            targets = _ray_targets(traj.grid, t)
            w_u, w_v, gamma_u, gamma_v = (sl.spectrum_at(limit, targets) for limit in limits)
            state = traj.snapshots[i]
            assert _closed_form_gap(state.u, t, w_u, w_v, gamma_v) == analysis.asym_u[i]
            assert _closed_form_gap(state.v, t, w_v, w_u, gamma_u) == analysis.asym_v[i]

    def test_four_spectra_per_time(self, monkeypatch):
        traj = free_pair_trajectory(t_end=32.0, L=700.0, N=4096)
        plans = []
        calls = []  # (rows, plans built, earlier results still alive)
        spectra = []

        def counting_plan(*args):
            plans.append(args)
            return plan(*args)

        def counting(fields, targets, method="auto"):
            alive = sum(ref() is not None for ref in spectra)
            built = len(plans)
            out = sl.spectrum_at(fields, targets, method)
            calls.append((len(out), len(plans) - built, alive))
            spectra.extend(weakref.ref(row) for row in out)
            return out

        plan = propagator._bluestein_plan
        monkeypatch.setattr(propagator, "_bluestein_plan", counting_plan)
        monkeypatch.setattr(scattering, "spectrum_at", counting)
        analysis = sl.analyze_trajectory(traj)
        usable = np.count_nonzero(np.isfinite(analysis.asym_u))
        assert usable >= 2
        # four rows on one plan per time; the previous time's are gone first
        assert calls == [(4, 1, 0)] * usable
        # and the analysis holds none of them
        assert all(ref() is None for ref in spectra)

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
