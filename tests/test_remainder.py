from dataclasses import replace

import numpy as np
import pytest

import scatterlab as sl
import scatterlab.remainder as remainder
from scatterlab.remainder import RESONANT_COEFF, TrilinearInput
from conftest import CONFIGS, smooth_random_input


def synthetic_input(seed=0, L=24.0, width=1.25, s=1.0):
    grid = sl.Grid1D(L=L, N=64)
    rng = np.random.default_rng(seed)
    return smooth_random_input(grid, width, rng, s)


class TestRemainderPhysical:
    def test_zero_inputs_give_zero(self):
        grid = sl.Grid1D(L=24.0, N=64)
        zero = sl.ComplexField(grid, np.zeros(64), "spectral")
        inp = TrilinearInput(zero, zero, 2.0)
        assert np.all(sl.remainder_physical(inp).samples == 0)
        assert np.all(sl.remainder_oracle(inp).samples == 0)

    def test_trilinear_scaling_exact(self):
        inp = synthetic_input(3)
        base = sl.remainder_physical(inp).samples
        c = 1.7 * np.exp(0.4j)
        scaled_f = TrilinearInput(inp.f_hat.with_samples(c * inp.f_hat.samples), inp.g_hat, inp.s)
        out = sl.remainder_physical(scaled_f).samples
        assert np.max(np.abs(out - c * base)) < 1e-13 * np.max(np.abs(base))
        scaled_g = TrilinearInput(inp.f_hat, inp.g_hat.with_samples(c * inp.g_hat.samples), inp.s)
        out_g = sl.remainder_physical(scaled_g).samples
        assert np.max(np.abs(out_g - abs(c) ** 2 * base)) < 1e-13 * np.max(np.abs(base))

    def test_split_recomposition(self):
        inp = synthetic_input(4, s=2.0)
        i_term, n_term = sl.remainder_split(inp)
        total = i_term.samples + n_term.samples / inp.s
        r = sl.remainder_physical(inp).samples
        assert np.max(np.abs(total - r)) < 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_resonant_term_single_modes_hand_expansion(self):
        grid = sl.Grid1D(L=8.0, N=16)
        f_spike = np.zeros(16, dtype=complex)
        g_spike = np.zeros(16, dtype=complex)
        f_spike[9] = 0.8 - 0.1j
        g_spike[5] = 1.2 + 0.5j
        inp = TrilinearInput(
            sl.ComplexField(grid, f_spike, "spectral"),
            sl.ComplexField(grid, g_spike, "spectral"),
            1.0,
        )
        n_term = sl.resonant_term(inp).samples
        hand = np.zeros(16, dtype=complex)
        for k in range(16):
            hand[k] = 1j * RESONANT_COEFF * g_spike[k] * np.conj(g_spike[k]) * f_spike[k]
        assert np.max(np.abs(n_term - hand)) < 1e-15


class TestRemainderOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_transform_path(self, seed):
        for s, L, width in ((1.0, 24.0, 1.25), (2.0, 32.0, 1.5), (10.0, 80.0, 3.5)):
            inp = synthetic_input(seed, L=L, width=width, s=s)
            fast = sl.remainder_physical(inp).samples
            slow = sl.remainder_oracle(inp).samples
            scale = np.max(np.abs(fast))
            assert np.max(np.abs(fast - slow)) < 1e-6 * scale

    def test_decay_for_fixed_input(self):
        grid = sl.Grid1D(L=32.0, N=64)
        f_hat = sl.ComplexField(grid, np.exp(-grid.xi**2), "spectral")
        g_hat = sl.ComplexField(grid, 0.7 * np.exp(-(grid.xi - 0.2) ** 2), "spectral")
        sups = []
        for s in (1.0, 10.0, 100.0):
            r = sl.remainder_oracle(TrilinearInput(f_hat, g_hat, s))
            sups.append(sl.norm_Linf(r))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < sups[0] / 50.0

    def test_rejects_large_grid(self):
        grid = sl.Grid1D(L=32.0, N=128)
        zero = sl.ComplexField(grid, np.zeros(128), "spectral")
        with pytest.raises(ValueError):
            sl.remainder_oracle(TrilinearInput(zero, zero, 1.0))

    def test_requires_unit_time(self):
        grid = sl.Grid1D(L=32.0, N=64)
        zero = sl.ComplexField(grid, np.zeros(64), "spectral")
        with pytest.raises(ValueError):
            TrilinearInput(zero, zero, 0.5)


class TestDecayFits:
    def test_vacuous_on_linear_trajectory(self):
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        params = sl.AnalysisParams.make(epsilon=0.2)
        sched = sl.geometric_schedule(21.0)
        traj = sl.evolve(sl.PairState(u1, zero, 1.0), 21.0, 0.05, sched, params)
        report = sl.remainder_decay_fit(traj)
        assert report.vacuous
        # R = 0 exactly: a series with nothing to fit
        assert not np.any(report.sup_values)
        with pytest.raises(ValueError, match="positive"):
            sl.fit_rate(report.times, report.sup_values)

    def test_small_data_keep_their_fit(self):
        # R is cubic in the data: on quick.cfg sup|R| at t = 1 is 6.6 eps^3,
        # 6.6e-15 at eps = 1e-5, which is still an interaction to fit
        exponents = []
        for eps in (1e-3, 1e-5):
            cfg = replace(sl.parse_config(CONFIGS / "quick.cfg"), epsilon=eps)
            _, params, u1, v1 = sl.build_experiment(cfg)
            schedule = sl.geometric_schedule(cfg.t_end, cfg.schedule_ratio)
            report = sl.remainder_decay_fit(sl.evolve(sl.PairState(u1, v1, 1.0), cfg.t_end, cfg.dt, schedule, params))
            assert not report.vacuous, eps
            exponents.append(sl.fit_rate(report.times, report.sup_values).exponent)
        assert abs(exponents[1] - exponents[0]) <= 1e-3, exponents

    def test_h10_growth_flat_in_linear_case(self):
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        params = sl.AnalysisParams.make(epsilon=0.2)
        sched = sl.geometric_schedule(21.0)
        traj = sl.evolve(sl.PairState(u1, zero, 1.0), 21.0, 0.05, sched, params)
        fit = sl.h10_growth_fit(traj, "u")
        assert abs(fit.exponent) < 1e-6

    def test_h10_growth_small_on_coupled_run(self, richardson_traj):
        for component in ("u", "v"):
            fit = sl.h10_growth_fit(richardson_traj, component)
            assert fit.exponent <= 0.1

    def test_decay_fit_keeps_its_profile_rows(self, richardson_traj, monkeypatch):
        # the TrilinearInput fields and the H^{1,0} norms wrap rows of the
        # fit's read-only profile block as they are: four per snapshot
        wraps = []
        read_only = sl.spectral._read_only

        def recording(arr):
            wraps.append((arr, read_only(arr)))
            return wraps[-1][1]

        monkeypatch.setattr(sl.spectral, "_read_only", recording)
        sl.remainder_decay_fit(richardson_traj)
        rows = [kept for arr, kept in wraps if isinstance(arr.base, np.ndarray) and arr.base.ndim == 3]
        assert rows == [True] * 4 * len(richardson_traj.snapshots)

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_h10_growth_fits_its_side_of_profile_spectra(self, component):
        grid = sl.Grid1D(L=240.0, N=512)
        u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 3.0)
        params = sl.AnalysisParams.make(epsilon=0.2)
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), 16.0, 0.05, sl.geometric_schedule(16.0), params)
        assert len(traj.snapshots) == 17
        side = sl.profile_spectra(traj.snapshots)[:, "uv".index(component)]
        expect = sl.fit_rate(traj.times, [remainder.norm_H10_xi(grid, row) for row in side])
        assert sl.h10_growth_fit(traj, component) == expect


class TestOddPowerSplit:
    def test_degenerate_points(self):
        assert sl.odd_power_split_holds(2, 1.3, 0.0, 0.0)
        assert sl.odd_power_split_holds(3, 0.0, 0.7, -0.2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_randomized_search(self, n):
        rng = np.random.default_rng(42 + n)
        triples = rng.uniform(-20.0, 20.0, size=(100_000, 3))
        p = 2 * n + 1
        xi, eta, sigma = triples[:, 0], triples[:, 1], triples[:, 2]
        lhs = np.abs(xi) ** p
        rhs = np.abs(xi - sigma) ** p + np.abs(xi - eta) ** p + np.abs(xi - sigma - eta) ** p
        ratio = lhs / np.where(rhs == 0, np.inf, rhs)
        assert np.max(ratio) <= 3.0 ** (2 * n) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_constant_is_minimal(self, n):
        # near sigma = eta = 2 xi / 3 the ratio approaches 3^(2n)
        xi = 1.0
        sigma = eta = 2.0 / 3.0
        p = 2 * n + 1
        rhs = abs(xi - sigma) ** p + abs(xi - eta) ** p + abs(xi - sigma - eta) ** p
        assert abs(xi**p / rhs - 3.0 ** (2 * n)) < 1e-9
        assert sl.odd_power_split_holds(n, xi, eta, sigma)


class TestRateFit:
    def test_pure_power_law(self):
        t = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = sl.fit_rate(t, t**-0.5)
        assert abs(fit.exponent + 0.5) < 1e-12
        assert fit.residual_rms < 1e-12

    def test_constant_series(self):
        t = np.array([1.0, 2.0, 4.0, 8.0])
        fit = sl.fit_rate(t, np.ones(4) * 3.2)
        assert abs(fit.exponent) < 1e-12

    def test_noisy_power_law(self):
        t = np.geomspace(1.0, 100.0, 25)
        vals = 3.0 * t**-1.25 * (1 + 0.01 * np.sin(np.log(t)))
        fit = sl.fit_rate(t, vals)
        assert abs(fit.exponent + 1.25) < 0.02

    def test_synthetic_growth_exponent(self):
        t = np.geomspace(1.0, 50.0, 12)
        fit = sl.fit_rate(t, 2.0 * t**0.05)
        assert abs(fit.exponent - 0.05) < 1e-12

    def test_rejects_bad_series(self):
        with pytest.raises(ValueError):
            sl.fit_rate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            sl.fit_rate([1.0, 2.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            sl.fit_rate([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0])
