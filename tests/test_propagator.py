import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scatterlab as sl
import threading
import tracemalloc
import weakref

from numpy.fft import fft, ifft
from scipy.fft import next_fast_len

import scatterlab.propagator as propagator
from scatterlab.propagator import FrequencyRangeError, _bluestein_plan, _check_rays, _linear_phase, _unit_phase
from scatterlab.spectral import to_physical


def gaussian(grid, a=1.0):
    return sl.ComplexField(grid, np.exp(-a * grid.x**2), "physical")


def gaussian_evolved(grid, t, a=1.0):
    # closed-form free evolution of e^{-a x^2}
    c = 1.0 + 4j * a * t
    return c**-0.5 * np.exp(-a * grid.x**2 / c)


def smooth_random(grid, seed, width=2.0):
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = grid.x / width
    poly = sum(c * z**j for j, c in enumerate(coeff))
    return sl.ComplexField(grid, np.exp(-(z**2) / 2) * poly, "physical")


def direct_spectrum(field, targets):
    """Reference for spectrum_at: the sum (dx/sqrt(2*pi)) sum_j phi_j e^{-i x_j xi}
    with a dense kernel, one row per target."""
    g = field.grid
    return np.exp(-1j * np.outer(targets, g.x)) @ to_physical(field).samples * (g.dx / np.sqrt(2 * np.pi))


def targets(xi0, dxi, m):
    """The frequencies xi0 + k*dxi, k = 0 .. m-1, that spectrum_at evaluates at."""
    return xi0 + dxi * np.arange(m)


def spanning(lo, hi, m):
    """The geometry (xi0, dxi, m) of m frequencies from lo to hi."""
    return lo, (hi - lo) / (m - 1) if m > 1 else 0.0, m


def rays(grid, t):
    """The geometry of the rays x_j/2t of the grid's nodes, in extended
    precision, as leading_split and the analysis pass it."""
    two_t = 2 * np.longdouble(t)
    return grid.x[0] / two_t, grid.dx / two_t, grid.N


def one_lane_spectrum(fields, xi0, dxi, m, length=None):
    """Reference for spectrum_at's two lanes: the plan applied to one field
    after another, out of place, as a single-threaded loop does it.  With a
    length, the kernel is transformed again at that convolution length."""
    g = fields[0].grid
    n = g.N
    plan = _bluestein_plan(n, float(g.x[0]), g.dx, xi0, dxi, m)
    kernel_hat = plan.kernel_hat
    if length is not None:
        span = np.arange(1 - n, m)
        kernel_hat = fft(_unit_phase(np.longdouble(g.dx) * np.longdouble(dxi) / 2, span * span), length)
    rows = []
    for f in fields:
        phi = to_physical(f).samples
        conv = ifft(fft(phi * plan.in_phase, kernel_hat.size) * kernel_hat)
        rows.append(plan.out_phase * conv[n - 1 : n - 1 + m])
    return rows


# a unit phase e^{i a}, a reduced mod 2 pi in extended precision, is within
# about 2 ulp of 1 (of the double rounding of the reduced angle); a product
# of three stays within PHASE_ULPS.  The extended-precision rounding of the
# unreduced angle, 2^-64 of its size, adds to that
PHASE_ULPS = 8


def phase_bound(angle):
    """PHASE_ULPS ulp of 1 plus 4 extended-precision ulp of the largest angle."""
    return PHASE_ULPS * np.spacing(1.0) + 4 * np.finfo(np.longdouble).eps * float(np.max(np.abs(angle)))


def cis_reduced(angle):
    """e^{i angle} of extended-precision angles, each reduced as one."""
    return _unit_phase(np.longdouble(1), angle)


def noise_fields(grid, rng, k):
    """k fields of complex noise, each on a random side."""
    sides = rng.choice(["physical", "spectral"], size=k)
    return [sl.ComplexField(grid, [1, 1j] @ rng.normal(size=(2, grid.N)), side) for side in sides]


class TestLinearPhase:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 15, 16, 17, 1000, 4097, 1 << 18])
    @pytest.mark.parametrize("scale", [-3.7, 0.0123, 41.0])
    def test_within_bound_of_unit_phase(self, count, scale):
        # the outer product of two tables; a ragged last block is cut off
        scale = np.longdouble(scale) / 7
        direct = _unit_phase(scale, np.arange(count))
        got = _linear_phase(scale, count)
        assert got.shape == (count,)
        assert np.max(np.abs(got - direct)) <= phase_bound(scale * (count - 1))


class TestFreeEvolve:
    def test_identity_at_t0(self):
        grid = sl.Grid1D(L=40.0, N=256)
        f = smooth_random(grid, 0)
        out = sl.free_evolve(f, 0.0)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-14

    def test_gaussian_closed_form(self):
        grid = sl.Grid1D(L=80.0, N=2048)
        out = sl.free_evolve(gaussian(grid), 1.0)
        assert np.max(np.abs(out.samples - gaussian_evolved(grid, 1.0))) < 1e-8

    @pytest.mark.parametrize("t", [-7.3, 0.9, 4.0, 10.0])
    def test_unitarity(self, t):
        grid = sl.Grid1D(L=60.0, N=512)
        f = smooth_random(grid, 1)
        assert abs(sl.norm_L2(sl.free_evolve(f, t)) - sl.norm_L2(f)) < 1e-12 * sl.norm_L2(f)

    def test_group_law_and_inverse(self):
        grid = sl.Grid1D(L=60.0, N=512)
        f = smooth_random(grid, 2)
        ab = sl.free_evolve(sl.free_evolve(f, 1.3), 0.9)
        once = sl.free_evolve(f, 2.2)
        assert np.max(np.abs(ab.samples - once.samples)) < 1e-12
        back = sl.free_evolve(sl.free_evolve(f, 3.7), -3.7)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_commutes_with_derivative(self):
        grid = sl.Grid1D(L=60.0, N=512)
        f = smooth_random(grid, 3)
        a = sl.free_evolve(sl.derivative(f), 1.7)
        b = sl.derivative(sl.free_evolve(f, 1.7))
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_spectral_side_multiplier(self):
        grid = sl.Grid1D(L=60.0, N=512)
        f = smooth_random(grid, 4)
        via_spec = sl.fourier_inverse(sl.free_evolve(sl.fourier_forward(f), 2.0))
        direct = sl.free_evolve(f, 2.0)
        assert np.max(np.abs(via_spec.samples - direct.samples)) < 1e-13


class TestKernelEvolve:
    def test_zero_field(self):
        grid = sl.Grid1D(L=40.0, N=128)
        zero = sl.ComplexField(grid, np.zeros(128), "physical")
        assert np.all(sl.kernel_evolve(zero, 1.0).samples == 0)

    # the box is sized per time: early times need the oscillatory kernel
    # resolved, late times need the spread solution clear of the edge
    @pytest.mark.parametrize("t,L", [(0.5, 40.0), (1.0, 40.0), (2.0, 64.0)])
    def test_matches_free_evolve_and_closed_form(self, t, L):
        grid = sl.Grid1D(L=L, N=512)
        f = gaussian(grid)
        kv = sl.kernel_evolve(f, t).samples
        fv = sl.free_evolve(f, t).samples
        scale = np.max(np.abs(fv))
        assert np.max(np.abs(kv - fv)) < 1e-6 * scale
        assert np.max(np.abs(kv - gaussian_evolved(grid, t))) < 1e-6 * scale

    def test_rejects_nonpositive_time(self):
        grid = sl.Grid1D(L=40.0, N=128)
        with pytest.raises(ValueError):
            sl.kernel_evolve(gaussian(grid), 0.0)

    def test_rejects_large_grid(self):
        grid = sl.Grid1D(L=40.0, N=1024)
        with pytest.raises(ValueError):
            sl.kernel_evolve(gaussian(grid), 1.0)


class TestSpectrumAt:
    def test_matches_grid_transform(self):
        grid = sl.Grid1D(L=50.0, N=256)
        f = smooth_random(grid, 5)
        fh = sl.fourier_forward(f)
        (vals,) = sl.spectrum_at([f], grid.xi[0], grid.dxi, grid.N)
        assert np.max(np.abs(vals - fh.samples)) < 1e-12

    def test_bluestein_equals_direct(self):
        grid = sl.Grid1D(L=50.0, N=1024)
        f = smooth_random(grid, 6)
        geometry = spanning(-3.0, 3.0, 777)
        a = direct_spectrum(f, targets(*geometry))
        (b,) = sl.spectrum_at([f], *geometry)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_spectral_input_interpolates(self):
        grid = sl.Grid1D(L=50.0, N=512)
        f = smooth_random(grid, 7)
        fh = sl.fourier_forward(f)
        (vals,) = sl.spectrum_at([fh], grid.xi[100], grid.dxi, 10)
        assert np.max(np.abs(vals - fh.samples[100:110])) < 1e-12

    def test_single_target(self):
        grid = sl.Grid1D(L=50.0, N=256)
        f = smooth_random(grid, 8)
        for xi in (-1.3, 0.0, 2.0):
            (val,) = sl.spectrum_at([f], xi, 0.0, 1)
            ref = direct_spectrum(f, [xi])
            assert val.shape == (1,)
            assert abs(val[0] - ref[0]) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 256).map(lambda h: 2 * h),
        m=st.integers(1, 700),
        L=st.floats(1.0, 100.0),
        xi0=st.floats(-6.0, 6.0),
        dxi=st.floats(-0.05, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    # one target; a ragged last block of the linear phases; m > n
    @example(n=8, m=1, L=3.0, xi0=-1.5, dxi=0.0, seed=0)
    @example(n=512, m=17, L=100.0, xi0=6.0, dxi=-0.05, seed=1)
    @example(n=8, m=700, L=1.0, xi0=-6.0, dxi=0.05, seed=2)
    def test_matches_direct_sum(self, n, m, L, xi0, dxi, seed):
        # the grid sets the sources: x0 = -L/2 and dx = L/n
        grid = sl.Grid1D(L=L, N=n)
        (f,) = noise_fields(grid, np.random.default_rng(seed), 1)
        (row,) = sl.spectrum_at([f], xi0, dxi, m)
        terms = grid.dx / np.sqrt(2 * np.pi) * np.sum(np.abs(to_physical(f).samples))
        assert np.max(np.abs(row - direct_spectrum(f, targets(xi0, dxi, m)))) <= 1e-12 * terms

    @pytest.mark.parametrize(
        "xi0, dxi, m", [(np.nan, 0.1, 5), (0.0, np.inf, 5), (np.longdouble("inf"), 0.1, 5), (0.0, 0.1, 0)]
    )
    def test_rejects_nonfinite_geometry_and_no_targets(self, xi0, dxi, m):
        f = smooth_random(sl.Grid1D(L=50.0, N=64), 8)
        with pytest.raises(ValueError, match="spectrum_at needs"):
            sl.spectrum_at([f], xi0, dxi, m)


def count_plan_builds(monkeypatch):
    """Record each _bluestein_plan build as weak references to its arrays."""
    builds = []

    def counting(*args):
        plan = _bluestein_plan(*args)
        builds.append([weakref.ref(arr) for arr in plan])
        return plan

    monkeypatch.setattr(propagator, "_bluestein_plan", counting)
    return builds


def assert_rows_equal_single_calls(n, k, seed, m):
    rng = np.random.default_rng(seed)
    grid = sl.Grid1D(L=50.0, N=n)
    fields = noise_fields(grid, rng, k)
    geometry = spanning(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), m)
    rows = sl.spectrum_at(fields, *geometry)
    assert len(rows) == k
    for f, row in zip(fields, rows):
        assert np.array_equal(row, sl.spectrum_at([f], *geometry)[0])
        # the dense reference kernel has n*m entries: only small cases.  The
        # noise samples cancel in the sum, so round-off is measured against
        # the sum of the terms' moduli, which bounds every |row| entry
        if n * m <= 1 << 18:
            terms = grid.dx / np.sqrt(2 * np.pi) * np.sum(np.abs(to_physical(f).samples))
            assert np.max(np.abs(row - direct_spectrum(f, targets(*geometry)))) <= 1e-12 * terms


class TestSeveralFields:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 200).map(lambda h: 2 * h),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 600),
    )
    # the smallest grid under many targets
    @example(n=8, k=3, seed=4, m=511)
    @example(n=8, k=1, seed=2, m=583)
    @example(n=8, k=3, seed=58, m=556)
    def test_rows_equal_single_calls(self, n, k, seed, m):
        assert_rows_equal_single_calls(n, k, seed, m)

    @pytest.mark.parametrize("m", [40, 1 << 14])
    def test_rows_equal_single_calls_large(self, m):
        assert_rows_equal_single_calls(1 << 14, 3, 12, m)

    def test_single_field_gives_one_row(self):
        grid = sl.Grid1D(L=50.0, N=64)
        f = smooth_random(grid, 4)
        rows = sl.spectrum_at([f], grid.xi[0], grid.dxi, 5)
        assert isinstance(rows, list)
        assert len(rows) == 1 and rows[0].shape == (5,)

    def test_rejects_mixed_grids_and_no_fields(self):
        f = smooth_random(sl.Grid1D(L=50.0, N=64), 4)
        g = smooth_random(sl.Grid1D(L=50.0, N=128), 4)
        with pytest.raises(sl.GridMismatchError):
            sl.spectrum_at([f, g], 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            sl.spectrum_at([], 0.0, 1.0, 2)


class TestTwoLanes:
    # odd field counts give the lanes unequal shares
    @pytest.mark.parametrize("n, m", [(256, 300), (1 << 14, 1 << 14), (1 << 14, 999)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rows_bitwise_one_lane_loop(self, n, m, k):
        rng = np.random.default_rng(n + m + k)
        grid = sl.Grid1D(L=50.0, N=n)
        sides = ["physical", "spectral"] * 3
        fields = [sl.ComplexField(grid, [1, 1j] @ rng.normal(size=(2, n)), sides[i]) for i in range(k)]
        geometry = spanning(-2.0, 2.7, m)
        rows = sl.spectrum_at(fields, *geometry)
        want = one_lane_spectrum(fields, *geometry)
        assert len(rows) == k
        for row, ref in zip(rows, want):
            # views of the bits: array_equal takes -0 for +0
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("passed", [0, 1])
    def test_worker_error_propagates(self, monkeypatch, passed):
        # the worker transforms the rows of fields 1 and 3: passed = 0 fails
        # its first row, 1 its second
        grid = sl.Grid1D(L=50.0, N=256)
        fields = [smooth_random(grid, s) for s in (9, 10, 11, 12, 13)]
        worker_calls = []

        def failing_fft(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                worker_calls.append(1)
                if len(worker_calls) > passed:
                    raise RuntimeError("worker lane failed")
            return fft(*args, **kwargs)

        monkeypatch.setattr(propagator, "fft", failing_fft)
        with pytest.raises(RuntimeError, match="worker lane failed"):
            sl.spectrum_at(fields, *rays(grid, 1.0))


class TestBluesteinPlan:
    def test_interleaved_geometries_and_fields(self, monkeypatch):
        grid = sl.Grid1D(L=50.0, N=1024)
        fields = [smooth_random(grid, 9), smooth_random(grid, 10)]
        builds = count_plan_builds(monkeypatch)
        results = []
        for t in (1.0, 3.0, 1.0):
            vals = np.array(sl.spectrum_at(fields, *rays(grid, t)))
            ref = np.array([direct_spectrum(f, grid.x / (2.0 * t)) for f in fields])
            assert vals.shape == (2, grid.N)
            assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))
            results.append(vals)
        # first and third geometry agree bit for bit; both fields shared a plan
        assert np.array_equal(results[0], results[2])
        assert len(builds) == 3

    @pytest.mark.parametrize("n, m", [(8, 1), (64, 40), (64, 150), (1024, 1024), (256, 3001)])
    def test_one_quadratic_table_on_the_calling_thread(self, monkeypatch, n, m):
        # the span chirp is the plan's one max(n, m)-long reduction; the
        # linear phases reduce tables of about sqrt(n) and sqrt(m) entries,
        # and the constant e^{-i x0 xi0} one entry
        grid = sl.Grid1D(L=50.0, N=n)
        tables = []

        def counting(scale, index):
            tables.append((index.size, threading.current_thread() is threading.main_thread()))
            return _unit_phase(scale, index)

        monkeypatch.setattr(propagator, "_unit_phase", counting)
        sl.spectrum_at([smooth_random(grid, 9), smooth_random(grid, 10)], *spanning(-2.0, 2.5, m))
        sizes = sorted(size for size, _ in tables)
        assert sizes[-1] == max(n, m) and len(sizes) == 6 and sizes[0] == 1
        assert sizes[-2] <= np.ceil(np.sqrt(max(n, m)))
        assert all(main for _, main in tables)

    def test_plan_arrays_read_only(self):
        plan = _bluestein_plan(64, -3.2, 0.1, -2.0, 0.05, 40)
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_no_plan_survives_the_call(self, monkeypatch):
        grid = sl.Grid1D(L=50.0, N=256)
        builds = count_plan_builds(monkeypatch)
        sl.spectrum_at([smooth_random(grid, 9), smooth_random(grid, 10)], *rays(grid, 1.0))
        assert len(builds) == 1
        assert all(ref() is None for ref in builds[0])


class TestRayEngine:
    @pytest.mark.parametrize(
        "n, m",
        [(1024, 1025), (1024, 1026), (1024, 100), (1024, 1024), (256, 3000)],
    )
    def test_czt_matches_direct(self, n, m):
        # n+m-1 = 2048 is a fast length and 2049 is just past it
        grid = sl.Grid1D(L=50.0, N=n)
        f = smooth_random(grid, 11)
        geometry = spanning(-2.5, 3.0, m)
        a = direct_spectrum(f, targets(*geometry))
        (b,) = sl.spectrum_at([f], *geometry)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("n, m", [(64, 40), (64, 150), (1024, 1024), (64, 20000)])
    def test_plan_arrays_match_direct_formulas(self, n, m):
        geometries = [
            (-3.2, 0.1, -2.0, 0.05),
            # the rays of L = 475.2, N = 4096 at the schedule's t = 2^(16/4),
            # in extended precision: x0 xi0 = 1764 rad, whose double carries
            # a phase error up to ulp(1764) = 2.3e-13
            (-237.6, 475.2 / 4096, *rays(sl.Grid1D(L=475.2, N=4096), 15.999999999999993)[:2]),
        ]
        for x0, dx, xi0, dxi in geometries:
            plan = _bluestein_plan(n, x0, dx, xi0, dxi, m)
            ld = np.longdouble
            theta = ld(dx) * ld(dxi)
            j = np.arange(n)
            k = np.arange(m)
            span = np.arange(-(n - 1), m)
            # against each entry's whole angle, reduced once: the plan multiplies
            # three unit phases into in_phase and four into out_phase
            angle = -ld(dx) * ld(xi0) * j - theta / 2 * (j * j)
            assert np.max(np.abs(plan.in_phase - cis_reduced(angle))) <= phase_bound(angle)
            angle = -ld(x0) * (ld(xi0) + ld(dxi) * k) - theta / 2 * (k * k)
            deviation = np.abs(plan.out_phase / (dx / np.sqrt(2 * np.pi)) - cis_reduced(angle))
            assert np.max(deviation) <= phase_bound(angle)
            kernel = _unit_phase(theta / 2, span * span)
            assert np.array_equal(plan.kernel_hat, fft(kernel, next_fast_len(span.size)))

    def test_rays_near_linear_convolution_length(self):
        # the convolution is n + m - 1 long, not the linear 2n + m - 2: on the
        # widest ray geometry of an N = 2^14 grid the rows move by round-off
        n = 1 << 14
        grid = sl.Grid1D(L=50.0, N=n)
        t = np.nextafter(grid.L / (4.0 * grid.xi[-1]), np.inf)
        with pytest.raises(FrequencyRangeError):
            _check_rays(grid, t * (1 - 1e-9))
        _check_rays(grid, t)
        fields = noise_fields(grid, np.random.default_rng(21), 4)
        rows = sl.spectrum_at(fields, *rays(grid, t))
        old = one_lane_spectrum(fields, *rays(grid, t), length=next_fast_len(3 * n - 2))
        assert old[0].size == rows[0].size == n
        for f, row, ref in zip(fields, rows, old):
            terms = grid.dx / np.sqrt(2 * np.pi) * np.sum(np.abs(to_physical(f).samples))
            assert np.max(np.abs(row - ref)) <= 1e-14 * terms

    def test_call_peak_memory(self):
        # the traced peak of a four-field call at N = m = 2^14: the four rows,
        # the kernel and two convolution buffers of 2N (a fast n + m - 1) and
        # six rows of plan tables and temporaries.  The linear convolution's
        # 3N buffers exceed it
        ROWS = 16
        n = 1 << 14
        grid = sl.Grid1D(L=50.0, N=n)
        fields = noise_fields(grid, np.random.default_rng(22), 4)
        geometry = spanning(-2.0, 2.7, n)
        tracemalloc.start()
        try:
            sl.spectrum_at(fields, *geometry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ROWS * n * 16, peak / (n * 16)

    def test_old_plan_dropped_before_next_is_built(self, monkeypatch):
        grid = sl.Grid1D(L=50.0, N=256)
        f = smooth_random(grid, 9)
        builds = count_plan_builds(monkeypatch)
        sl.spectrum_at([f], *rays(grid, 1.0))
        seen = []

        def watching_fft(*args, **kwargs):
            seen.append(all(ref() is None for ref in builds[0]))
            return fft(*args, **kwargs)

        monkeypatch.setattr(propagator, "fft", watching_fft)
        sl.spectrum_at([f], *rays(grid, 3.0))
        assert len(builds) == 2
        assert seen and all(seen)

    def test_rows_transform_in_place_in_two_lane_buffers(self, monkeypatch):
        grid = sl.Grid1D(L=50.0, N=256)
        fields = [smooth_random(grid, s) for s in (9, 10, 11)]
        calls = []

        def watching_fft(x, *args, **kwargs):
            out = fft(x, *args, **kwargs)
            calls.append((x, out, threading.current_thread() is threading.main_thread()))
            return out

        monkeypatch.setattr(propagator, "fft", watching_fft)
        sl.spectrum_at(fields, *rays(grid, 1.0))
        # the plan's kernel transform on this thread, then one per row; every
        # transform overwrites its input, and each lane reuses its one buffer
        assert len(calls) == 4
        assert all(np.shares_memory(out, x) for x, out, _ in calls)
        kernel, *rows = calls
        assert kernel[2]
        main_bufs = {id(x) for x, _, main in rows if main}
        worker_bufs = {id(x) for x, _, main in rows if not main}
        assert len(main_bufs) == len(worker_bufs) == 1 and main_bufs != worker_bufs
        assert sum(main for *_, main in rows) == 2


class TestLeadingSplit:
    def test_reconstruction_identity(self):
        grid = sl.Grid1D(L=120.0, N=1024)
        f = smooth_random(grid, 9)
        split = sl.leading_split(f, 3.0)
        total = split.leading.samples + split.remainder.samples
        evolved = sl.free_evolve(f, 3.0).samples
        assert np.max(np.abs(total - evolved)) < 1e-12 * max(1.0, np.max(np.abs(evolved)))

    def test_leading_max_norm_exact(self):
        grid = sl.Grid1D(L=120.0, N=2048)
        f = gaussian(grid)
        fh_sup = sl.norm_Linf(sl.fourier_forward(f))
        for t in (1.0, 4.0, 16.0):
            split = sl.leading_split(f, t)
            assert abs(sl.norm_Linf(split.leading) * np.sqrt(2 * t) - fh_sup) < 1e-12

    def test_remainder_decay_slope(self):
        grid = sl.Grid1D(L=800.0, N=2**16)
        f = gaussian(grid)
        times = [2.0, 4.0, 8.0, 16.0, 32.0]
        vals = [sl.norm_Linf(sl.leading_split(f, t).remainder) for t in times]
        fit = sl.fit_rate(times, vals)
        assert fit.exponent <= -0.7

    def test_free_evolution_max_norm_decay_rate(self):
        # decoupled case: the free closed form decays at exactly -1/2
        grid = sl.Grid1D(L=2030.0, N=2**14)
        u1 = sl.ComplexField(grid, 0.2 * np.exp(-grid.x**2 / 18.0), "physical")
        times = np.geomspace(10.0, 200.0, 14)
        vals = [sl.norm_Linf(sl.free_evolve(u1, t - 1.0)) for t in times]
        fit = sl.fit_rate(times, vals)
        assert -0.55 <= fit.exponent <= -0.45

    def test_range_guard_names_required_size(self):
        grid = sl.Grid1D(L=200.0, N=64)
        f = gaussian(grid)
        with pytest.raises(FrequencyRangeError, match="enlarge N"):
            sl.leading_split(f, 1.0)

    def test_rejects_small_time(self):
        grid = sl.Grid1D(L=120.0, N=1024)
        with pytest.raises(ValueError):
            sl.leading_split(gaussian(grid), 0.5)


class TestPhaseDifferenceBound:
    def test_zero(self):
        assert sl.phase_difference_bound_holds(0.0, 0.2)

    def test_unit_point(self):
        # 2|sin(0.5)| = 0.959 <= 2
        assert sl.phase_difference_bound_holds(1.0, 0.2)

    def test_small_point(self):
        # |e^{0.01 i} - 1| = 0.01 <= 2 * 0.01^0.2 = 0.795
        assert sl.phase_difference_bound_holds(0.01, 0.2)

    @pytest.mark.parametrize("beta", [0.05, 0.12, 0.24])
    def test_sweep(self, beta):
        for x in np.linspace(-50.0, 50.0, 4001):
            assert sl.phase_difference_bound_holds(float(x), beta)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            sl.phase_difference_bound_holds(1.0, 0.3)
