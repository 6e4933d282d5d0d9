import numpy as np
import pytest

import scatterlab as sl
from scatterlab.spectral import EdgeMassWarning, SideMismatchError


def gaussian_field(grid):
    return sl.ComplexField(grid, np.exp(-grid.x**2 / 2), "physical")


def random_field(grid, seed, side="physical"):
    rng = np.random.default_rng(seed)
    coord = grid.coordinate(side)
    env = np.exp(-(coord**2) / (2 * (0.05 * grid.L) ** 2))
    samples = env * (rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N))
    return sl.ComplexField(grid, samples, side)


class TestGrid:
    @pytest.mark.parametrize("L", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_length_rejected(self, L):
        with pytest.raises(ValueError, match="positive and finite"):
            sl.Grid1D(L=L, N=32)


class TestTransform:
    def test_zero_maps_to_zero(self):
        grid = sl.Grid1D(L=10.0, N=32)
        zero = sl.ComplexField(grid, np.zeros(32), "physical")
        assert np.all(sl.fourier_forward(zero).samples == 0)

    def test_gaussian_closed_form(self):
        grid = sl.Grid1D(L=40.0, N=512)
        fh = sl.fourier_forward(gaussian_field(grid))
        assert np.max(np.abs(fh.samples - np.exp(-grid.xi**2 / 2))) < 1e-10

    def test_gaussian_against_quadrature_oracle(self):
        # fine Riemann sum of the defining integral, independent of the FFT path
        grid = sl.Grid1D(L=40.0, N=512)
        fh = sl.fourier_forward(gaussian_field(grid))
        y = np.linspace(-20, 20, 20001)
        for k in (256, 300, 340):
            oracle = np.trapezoid(np.exp(-(y**2) / 2) * np.exp(-1j * y * grid.xi[k]), y)
            oracle /= np.sqrt(2 * np.pi)
            assert abs(fh.samples[k] - oracle) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plancherel(self, seed):
        grid = sl.Grid1D(L=37.0, N=256)
        f = random_field(grid, seed)
        fh = sl.fourier_forward(f)
        assert abs(sl.norm_L2(fh) - sl.norm_L2(f)) <= 1e-12 * sl.norm_L2(f)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_round_trip(self, seed):
        grid = sl.Grid1D(L=25.0, N=128)
        f = random_field(grid, seed)
        back = sl.fourier_inverse(sl.fourier_forward(f))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * sl.norm_Linf(f)

    def test_spectral_delta_inverse_matches_direct_sum(self):
        grid = sl.Grid1D(L=8.0, N=16)
        for k in (3, 9, 12):
            spike = np.zeros(16, dtype=complex)
            spike[k] = 1.0
            f = sl.fourier_inverse(sl.ComplexField(grid, spike, "spectral"))
            direct = np.array(
                [
                    sum(
                        grid.dxi / np.sqrt(2 * np.pi) * spike[m] * np.exp(1j * xj * grid.xi[m])
                        for m in range(16)
                    )
                    for xj in grid.x
                ]
            )
            assert np.max(np.abs(f.samples - direct)) < 1e-14
            expected = grid.dxi / np.sqrt(2 * np.pi) * np.exp(1j * grid.x * grid.xi[k])
            assert np.max(np.abs(f.samples - expected)) < 1e-14

    def test_side_mismatch_rejected(self):
        grid = sl.Grid1D(L=10.0, N=32)
        f = sl.ComplexField(grid, np.zeros(32), "spectral")
        with pytest.raises(SideMismatchError):
            sl.fourier_forward(f)

    def test_concurrent_transforms_are_correct(self):
        # pure operations on immutable values: worker threads must agree
        # with the serial result exactly
        from concurrent.futures import ThreadPoolExecutor

        grid = sl.Grid1D(L=37.0, N=512)
        fields = [random_field(grid, seed) for seed in range(16)]
        serial = [sl.fourier_forward(f).samples for f in fields]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda f: sl.fourier_forward(f).samples, fields))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_fields_are_immutable(self):
        grid = sl.Grid1D(L=10.0, N=32)
        f = sl.ComplexField(grid, np.ones(32), "physical")
        with pytest.raises(ValueError):
            f.samples[0] = 2.0
        with pytest.raises(ValueError):
            grid.x[0] = 1.0

    def test_convolution_theorem_against_direct_sum(self):
        grid = sl.Grid1D(L=16.0, N=64)
        rng = np.random.default_rng(7)
        u = random_field(grid, 10)
        v = random_field(grid, 11)
        prod = sl.fourier_forward(u.with_samples(u.samples * v.samples))
        uh = sl.fourier_forward(u).samples
        vh = sl.fourier_forward(v).samples
        conv = np.zeros(64, dtype=complex)
        for k in range(64):
            for m in range(64):
                conv[k] += uh[m] * vh[(k - m + 32) % 64]
        conv *= grid.dxi / np.sqrt(2 * np.pi)
        scale = np.max(np.abs(prod.samples))
        assert np.max(np.abs(prod.samples - conv)) < 1e-10 * max(scale, 1.0)


class TestNorms:
    def test_constant_field_l2(self):
        grid = sl.Grid1D(L=10.0, N=64)
        f = sl.ComplexField(grid, np.ones(64), "physical")
        assert abs(sl.norm_L2(f) - np.sqrt(10.0)) < 1e-12

    def test_gaussian_l2_and_linf(self):
        grid = sl.Grid1D(L=40.0, N=512)
        f = gaussian_field(grid)
        assert abs(sl.norm_L2(f) - np.pi**0.25) < 1e-8
        assert abs(sl.norm_Linf(f) - 1.0) < 1e-15

    def test_hn0_order_zero_is_l2(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = random_field(grid, 5)
        assert abs(sl.norm_Hn0(f, 0) - sl.norm_L2(f)) < 1e-13

    def test_hn0_gaussian_first_order(self):
        grid = sl.Grid1D(L=40.0, N=512)
        expected = np.pi**0.25 * (1 + 2**-0.5)
        assert abs(sl.norm_Hn0(gaussian_field(grid), 1) - expected) < 1e-6

    def test_hn0_single_mode(self):
        grid = sl.Grid1D(L=20.0, N=64)
        k = 40
        spike = np.zeros(64, dtype=complex)
        spike[k] = 1.0 / np.sqrt(grid.dxi)  # unit L2 mass
        f = sl.ComplexField(grid, spike, "spectral")
        assert abs(sl.norm_Hn0(f, 1) - (1 + abs(grid.xi[k]))) < 1e-10

    def test_h0n_order_zero_is_l2(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = random_field(grid, 6)
        assert abs(sl.norm_H0n(f, 0) - sl.norm_L2(f)) < 1e-13

    def test_h0n_gaussian_first_order(self):
        grid = sl.Grid1D(L=40.0, N=512)
        expected = np.pi**0.25 * (1 + 2**-0.5)
        assert abs(sl.norm_H0n(gaussian_field(grid), 1) - expected) < 1e-6

    def test_h0n_point_mass_at_origin(self):
        grid = sl.Grid1D(L=16.0, N=32)
        spike = np.zeros(32, dtype=complex)
        spike[16] = 2.0  # x = 0 node
        f = sl.ComplexField(grid, spike, "physical")
        for n in range(4):
            assert abs(sl.norm_H0n(f, n) - sl.norm_L2(f)) < 1e-14

    def test_h0n_edge_mass_warns(self):
        grid = sl.Grid1D(L=16.0, N=32)
        f = sl.ComplexField(grid, np.ones(32), "physical")
        with pytest.warns(EdgeMassWarning):
            sl.norm_H0n(f, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_monotone_in_order(self, seed):
        grid = sl.Grid1D(L=30.0, N=128)
        f = random_field(grid, seed)
        for n in range(7):
            assert sl.norm_Hn0(f, n + 1) >= sl.norm_Hn0(f, n)
            assert sl.norm_H0n(f, n + 1) >= sl.norm_H0n(f, n)


class TestAnalysisParams:
    def test_defaults_satisfy_window(self):
        p = sl.AnalysisParams.make()
        assert 0 < 4 * p.alpha < p.delta < 0.25
        assert abs(p.nu - 0.05) < 1e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.07, "delta": 0.24},  # 4*alpha >= delta
            {"alpha": 0.01, "delta": 0.26},  # delta >= 1/4
            {"alpha": 0.0, "delta": 0.24},  # alpha must be positive
            {"beta": 0.3},
            {"n": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sl.AnalysisParams.make(**kwargs)

    def test_nu_must_be_consistent(self):
        with pytest.raises(ValueError):
            sl.AnalysisParams(alpha=0.01, delta=0.24, beta=0.2, nu=0.06, n=1, epsilon=0.1)


def smooth_spectral_field(grid, seed):
    """Gaussian envelope times a random low-order polynomial: decays on both
    sides, so weighted norms are meaningful."""
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = grid.xi / 0.5
    poly = sum(c * z**j for j, c in enumerate(coeff))
    return sl.ComplexField(grid, np.exp(-(z**2) / 2) * poly, "spectral")


class TestXTComponents:
    def test_single_snapshot(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = smooth_spectral_field(grid, 9)
        params = sl.AnalysisParams.make()
        comps = sl.norm_XT_components([(1.0, f)], params)
        expected = (
            sl.norm_Linf(f),
            sl.norm_H0n(sl.fourier_inverse(f), 1),
            sl.norm_H0n(f, 2 * params.n + 1),
        )
        assert np.allclose(comps, expected, rtol=1e-13)

    def test_constant_series_attained_at_t1(self):
        grid = sl.Grid1D(L=30.0, N=128)
        f = smooth_spectral_field(grid, 12)
        params = sl.AnalysisParams.make()
        series = [(t, f) for t in (1.0, 2.0, 4.0, 8.0)]
        comps = sl.norm_XT_components(series, params)
        single = sl.norm_XT_components([(1.0, f)], params)
        assert np.allclose(comps, single, rtol=1e-13)

    def test_growing_series_hand_oracle(self):
        # all norms scaled to t^(alpha/2): weighted components peak at t = 1
        grid = sl.Grid1D(L=30.0, N=128)
        base = smooth_spectral_field(grid, 13)
        params = sl.AnalysisParams.make()
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        series = [(t, base.with_samples(base.samples * t ** (params.alpha / 2))) for t in times]
        comps = sl.norm_XT_components(series, params)
        expected_weighted = max(t ** (-params.alpha) * t ** (params.alpha / 2) for t in times)
        base_h10 = sl.norm_H0n(sl.fourier_inverse(base), 1)
        assert abs(comps[1] - expected_weighted * base_h10) < 1e-12 * base_h10
        # unweighted sup grows: attained at the last time
        assert abs(comps[0] - times[-1] ** (params.alpha / 2) * sl.norm_Linf(base)) < 1e-13

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            sl.norm_XT_components([], sl.AnalysisParams.make())
