import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab import solver
from scatterlab.solver import BandEdgeError, BoundaryWrapError, DomainSizingError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_pair(grid, eps=0.2, width=3.0):
    return sl.initial_pair(grid, "gaussian", eps, width)


def run(grid, u1, v1, t_end, dt, ratio=2.0**0.25, eps=0.2):
    params = sl.AnalysisParams.make(epsilon=eps)
    schedule = sl.geometric_schedule(t_end, ratio)
    return sl.evolve(sl.PairState(u1, v1, 1.0), t_end, dt, schedule, params)


def skip_sizing_rule(monkeypatch):
    """Let evolve start on a box the sizing rule rejects, to reach the
    in-flight wrap guard."""
    monkeypatch.setattr(solver, "check_domain_for_horizon", lambda u1, v1, t_end: None)


def rotate(a, h, m):
    """solver._rotate into fresh buffers."""
    return solver._rotate(a, h, m, np.empty(a.shape, complex), np.empty(a.shape))


def sequential_steps(u, v, grid, steps):
    """Single-threaded oracle: the plain split-step loop over a step list,
    one field after the other with fused linear half-steps, np.fft and
    complex np.exp."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx)

    def half(h):
        return np.exp(-0.5j * h * xi**2)

    prev = None
    for h in steps:
        mult = half(h) if prev is None else half(prev) * half(h)
        u = np.fft.ifft(np.fft.fft(u) * mult)
        v = np.fft.ifft(np.fft.fft(v) * mult)
        mu = np.abs(u) ** 2
        mv = np.abs(v) ** 2
        u = np.multiply(u, np.exp(-1j * h * mv))
        v = np.multiply(v, np.exp(-1j * h * mu))
        prev = h
    u = np.fft.ifft(np.fft.fft(u) * half(prev))
    v = np.fft.ifft(np.fft.fft(v) * half(prev))
    return u, v


def sequential_evolve(u, v, grid, times, dt):
    """The oracle over the segments evolve runs, returning (u, v) at every
    time."""
    out = [(u, v)]
    for t0, t1 in zip(times, times[1:]):
        span = t1 - t0
        n_full = int(np.floor(span / dt + 1e-12))
        rest = span - n_full * dt
        if rest < 1e-12 * max(1.0, t1):
            rest = 0.0
        u, v = sequential_steps(u, v, grid, [dt] * n_full + ([rest] if rest > 0.0 else []))
        out.append((u, v))
    return out


class TestNonlinearSubstep:
    # the exact potential-only flow: each field rotates under the other's
    # modulus frozen at entry, which the flow keeps constant
    def test_zero_potential_leaves_u(self):
        grid = sl.Grid1D(L=60.0, N=256)
        u1, _ = small_pair(grid)
        out = rotate(u1.samples, 0.3, np.zeros(grid.N))
        assert np.array_equal(out, u1.samples)

    def test_scalar_rotation(self):
        spike = np.zeros(32, dtype=complex)
        spike[10] = 1.0
        m = np.abs(spike) ** 2
        out_u = rotate(spike, np.pi, m)
        out_v = rotate(spike, np.pi, m)
        assert abs(out_u[10] - (-1.0)) < 1e-15
        assert abs(out_v[10] - (-1.0)) < 1e-15

    def test_moduli_frozen(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=256) + 1j * rng.normal(size=256)
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        out_u = rotate(u, 0.7, np.abs(v) ** 2)
        out_v = rotate(v, 0.7, np.abs(u) ** 2)
        assert np.max(np.abs(np.abs(out_u) - np.abs(u))) < 1e-15
        assert np.max(np.abs(np.abs(out_v) - np.abs(v))) < 1e-15


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRotate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16383, 16384, 16385]),
        h=st.floats(1e-7, 3.0),
        top=st.floats(0.0, 1e8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_complex_exp(self, n, h, top, seed):
        rng = np.random.default_rng(seed)
        m = rng.random(n) * top
        m[::5] = 0.0
        m[1::5] = rng.random(m[1::5].size) * np.finfo(float).tiny  # subnormal
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = np.multiply(a, np.exp(-1j * h * m))
        assert np.array_equal(bits(rotate(a, h, m)), bits(want))

    # the kernel rotates u and v as one (2, n) block by the swapped moduli
    @pytest.mark.parametrize("n", [8192, 16384])
    def test_block_bitwise_per_row_complex_exp(self, n):
        rng = np.random.default_rng(n)
        block = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        moduli = np.abs(block) ** 2
        moduli[:, ::5] = 0.0
        h = 0.05
        got = rotate(block, h, moduli[::-1])
        for row, a, m_other in zip(got, block, moduli[::-1]):
            want = np.multiply(a, np.exp(-1j * h * m_other))
            assert np.array_equal(bits(row), bits(want))


class TestStrangStep:
    def test_zero_stays_zero(self):
        grid = sl.Grid1D(L=60.0, N=256)
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        out = sl.strang_step(sl.PairState(zero, zero, 1.0), 0.1)
        assert np.all(out.u.samples == 0) and np.all(out.v.samples == 0)

    def test_linear_case_is_free_evolution(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, _ = small_pair(grid)
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        out = sl.strang_step(sl.PairState(u1, zero, 1.0), 0.25)
        free = sl.free_evolve(u1, 0.25)
        assert np.max(np.abs(out.u.samples - free.samples)) < 1e-12

    def test_mass_conserved_per_step(self):
        grid = sl.Grid1D(L=60.0, N=512)
        u1, v1 = small_pair(grid)
        state = sl.PairState(u1, v1, 1.0)
        m0 = state.masses()
        out = sl.strang_step(state, 0.02)
        m1 = out.masses()
        assert abs(m1[0] - m0[0]) < 1e-12 * m0[0]
        assert abs(m1[1] - m0[1]) < 1e-12 * m0[1]

    def test_second_order_self_refinement(self):
        grid = sl.Grid1D(L=90.0, N=1024)
        u1, v1 = small_pair(grid, eps=0.2, width=2.0)
        params = sl.AnalysisParams.make(epsilon=0.2)
        sched = np.array([1.0, 2.0])

        def final(dt):
            traj = sl.evolve(sl.PairState(u1, v1, 1.0), 2.0, dt, sched, params)
            return traj.snapshots[-1]

        ref = final(0.0025)
        e1 = np.max(np.abs(final(0.02).u.samples - ref.u.samples))
        e2 = np.max(np.abs(final(0.01).u.samples - ref.u.samples))
        assert 3.5 <= e1 / e2 <= 4.5


class TestEvolve:
    def test_zero_data_zero_trajectory(self):
        grid = sl.Grid1D(L=60.0, N=256)
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        traj = run(grid, zero, zero, 8.0, 0.05, eps=0.0)
        for s in traj.snapshots:
            assert np.all(s.u.samples == 0) and np.all(s.v.samples == 0)

    def test_linear_case_matches_free_evolution(self):
        grid = sl.Grid1D(L=700.0, N=4096)
        u1 = sl.ComplexField(grid, 0.3 * np.exp(-grid.x**2 / 2), "physical")
        zero = sl.ComplexField(grid, np.zeros(grid.N), "physical")
        traj = run(grid, u1, zero, 21.0, 0.02, eps=0.3)
        for s in traj.snapshots[1:]:
            free = sl.free_evolve(u1, s.t - 1.0)
            assert np.max(np.abs(s.u.samples - free.samples)) < 1e-10

    def test_lands_exactly_on_snapshot_times(self):
        grid = sl.Grid1D(L=200.0, N=1024)
        u1, v1 = small_pair(grid, eps=0.1)
        traj = run(grid, u1, v1, 5.0, 0.07, eps=0.1)
        sched = sl.geometric_schedule(5.0)
        assert np.allclose(traj.times, np.unique(np.concatenate([[1.0], sched])), rtol=0, atol=0)

    def test_exchange_symmetry_bitwise(self):
        grid = sl.Grid1D(L=220.0, N=1024)
        u1, v1 = small_pair(grid, eps=0.2)
        t1 = run(grid, u1, v1, 6.0, 0.05)
        t2 = run(grid, v1, u1, 6.0, 0.05)
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(a.u.samples, b.v.samples)
            assert np.array_equal(a.v.samples, b.u.samples)

    def test_phase_covariance(self):
        grid = sl.Grid1D(L=220.0, N=1024)
        u1, v1 = small_pair(grid, eps=0.2)
        c = np.exp(0.6j)
        t1 = run(grid, u1, v1, 6.0, 0.05)
        t2 = run(grid, u1.with_samples(c * u1.samples), v1, 6.0, 0.05)
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert np.max(np.abs(b.u.samples - c * a.u.samples)) < 1e-12
            assert np.max(np.abs(b.v.samples - a.v.samples)) < 1e-12

    def test_mass_conservation_along_run(self):
        grid = sl.Grid1D(L=260.0, N=2048)
        u1, v1 = small_pair(grid, eps=0.2)
        traj = run(grid, u1, v1, 8.0, 0.02)
        m0 = traj.snapshots[0].masses()
        for s in traj.snapshots:
            m = s.masses()
            assert abs(m[0] - m0[0]) < 1e-10 * m0[0]
            assert abs(m[1] - m0[1]) < 1e-10 * m0[1]

    def test_boundary_wrap_detected(self, monkeypatch):
        # deliberately undersized box, sizing rule bypassed
        skip_sizing_rule(monkeypatch)
        grid = sl.Grid1D(L=30.0, N=256)
        u1, v1 = small_pair(grid, eps=0.5, width=1.0)
        with pytest.raises(BoundaryWrapError):
            run(grid, u1, v1, 30.0, 0.05, eps=0.5)

    def test_domain_sizing_rule_enforced(self):
        grid = sl.Grid1D(L=30.0, N=256)
        u1, v1 = small_pair(grid, eps=0.5, width=1.0)
        with pytest.raises(DomainSizingError, match="sizing rule"):
            run(grid, u1, v1, 30.0, 0.05, eps=0.5)

    def test_near_duplicate_snapshot_times(self):
        # a segment shorter than one roundoff step must be a no-op, not a crash
        grid = sl.Grid1D(L=200.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        params = sl.AnalysisParams.make(epsilon=0.1)
        sched = [1.0, 2.0, 2.0 + 1e-13, 3.0]
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), 3.0, 0.05, sched, params)
        a, b = traj.snapshots[1], traj.snapshots[2]
        assert np.array_equal(a.u.samples, b.u.samples)

    @pytest.mark.parametrize(
        "t_end, dt, schedule, message",
        [
            (4.0, 0.05, [2.0, float("nan")], r"schedule entries must be finite, got \[2\.0, nan\]"),
            (4.0, 0.05, [float("-inf"), 2.0], "schedule entries must be finite"),
            (4.0, 0.05, [2.0, float("inf")], "schedule entries must be finite"),
            (float("nan"), 0.05, [2.0], "t_end must exceed 1"),
            (4.0, float("nan"), [2.0], "dt must be positive"),
        ],
        ids=["nan_entry", "minus_inf_entry", "inf_entry", "nan_t_end", "nan_dt"],
    )
    def test_nonfinite_input_rejected_before_any_step(self, t_end, dt, schedule, message, monkeypatch):
        # a NaN sorts last and compares false, so the [1, t_end] check alone
        # let it through to a step
        grid = sl.Grid1D(L=60.0, N=256)
        u1, v1 = small_pair(grid)
        steps = []
        kernel = solver._step_fields
        monkeypatch.setattr(solver, "_step_fields", lambda *args: steps.append(args) or kernel(*args))
        with pytest.raises(ValueError, match=message):
            sl.evolve(sl.PairState(u1, v1, 1.0), t_end, dt, schedule, sl.AnalysisParams.make())
        assert steps == []

    def test_schedule_deduplicated_in_order(self):
        # unsorted, repeated entries and the initial time land once each
        grid = sl.Grid1D(L=200.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), 3.0, 0.05, [3.0, 2.0, 1.0, 2.0, 2.5], sl.AnalysisParams.make())
        assert traj.times.tolist() == [1.0, 2.0, 2.5, 3.0]

    def test_requires_unit_initial_time(self):
        grid = sl.Grid1D(L=60.0, N=256)
        u1, v1 = small_pair(grid)
        params = sl.AnalysisParams.make()
        with pytest.raises(ValueError):
            sl.evolve(sl.PairState(u1, v1, 2.0), 4.0, 0.05, [1.0, 4.0], params)


# step lists whose neighbours differ somewhere, so the kernel fuses half-steps
# of two lengths, ending in a step shorter than the rest, as a segment's does
STEP_LISTS = st.builds(
    lambda body, last: [*body, last],
    st.lists(st.sampled_from([0.03, 0.05, 0.07]) | st.floats(0.02, 0.08), min_size=2, max_size=150).filter(
        lambda body: any(a != b for a, b in zip(body, body[1:]))
    ),
    st.floats(1e-4, 0.02),
)


class TestThreadedKernel:
    @pytest.mark.parametrize(
        "N, L",
        [(256, 80.0), (4096, 400.0), (2**13, 800.0), (2**14, 1600.0), (2**15, 2400.0), (2**18, 2400.0)],
    )
    def test_matches_sequential_loop_bitwise(self, N, L):
        # the segments evolve runs on its solve grid, driven here on the given
        # grid: two segments, the second ending in a short step, about 20
        # steps, or 5 at 2^18
        grid = sl.Grid1D(L=L, N=N)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.2, 3.0, carrier=0.5)
        times = [1.0, 1.5, 2.03] if N < 2**18 else [1.0, 1.1, 1.23]
        oracle = sequential_evolve(u1.samples, v1.samples, grid, times, 0.05)
        u, v = u1.samples, v1.samples
        for t0, t1, (want_u, want_v) in zip(times, times[1:], oracle[1:]):
            u, v = solver._run_segment(u, v, grid, t0, t1, 0.05)
            assert np.array_equal(u, want_u)
            assert np.array_equal(v, want_v)

    def test_evolve_is_sequential_loop_on_solve_grid(self):
        # evolve = restriction to the solve grid, the stepping, and
        # prolongation of each snapshot, all three bitwise
        grid = sl.Grid1D(L=400.0, N=4096)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.2, 3.0, carrier=0.5)
        params = sl.AnalysisParams.make(epsilon=0.2)
        times = [1.0, 1.5, 2.03]
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), times[-1], 0.05, times, params)
        spectra = [sl.fourier_forward(f).samples for f in (u1, v1)]
        solve = sl.Grid1D(L=grid.L, N=solver._solve_size(spectra, grid))
        assert solve.N < grid.N
        oracle = sequential_evolve(*(solver._resample(s, solve) for s in spectra), solve, times, 0.05)
        assert len(traj.snapshots) == len(oracle) == 3
        assert traj.snapshots[0].u is u1 and traj.snapshots[0].v is v1
        for s, pair in zip(traj.snapshots[1:], oracle[1:]):
            for got, f in zip((s.u, s.v), pair):
                want = solver._resample(sl.fourier_forward(sl.ComplexField(solve, f, "physical")).samples, grid)
                assert np.array_equal(got.samples, want)

    @settings(max_examples=40, deadline=None)
    @given(half_n=st.integers(4, 512), steps=STEP_LISTS, seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_loop_on_drawn_step_lists(self, half_n, steps, seed):
        grid = sl.Grid1D(L=120.0, N=2 * half_n)
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, grid.N)) + 1j * rng.normal(size=(2, grid.N))
        got = solver._step_fields(u, v, grid, steps)
        for row, want in zip(got, sequential_steps(u, v, grid, steps)):
            assert np.array_equal(bits(row), bits(want))

    @pytest.mark.parametrize("wrong", ["u", "v"])
    def test_lane_error_reaches_caller(self, wrong):
        # a field of the wrong size fails before the first step
        grid = sl.Grid1D(L=80.0, N=256)
        fields = {"u": np.ones(256, complex), "v": np.ones(256, complex)}
        fields[wrong] = np.ones(128, complex)
        with pytest.raises(ValueError, match=r"\(128,\)"):
            solver._step_fields(fields["u"], fields["v"], grid, [0.05, 0.05])

    def test_transforms_run_in_place_on_the_calling_thread(self, monkeypatch):
        # u and v step as the rows of one (2, N) block: each transform runs
        # on the calling thread, in place in one of the workspace's two
        # field buffers
        calls = []

        def watching(transform):
            def watched(x, *args, **kwargs):
                before = x.copy()
                out = transform(x, *args, **kwargs)
                address = x.__array_interface__["data"][0]
                calls.append((threading.current_thread(), out is x, address, before))
                return out

            return watched

        monkeypatch.setattr(solver, "fft", watching(solver.fft))
        monkeypatch.setattr(solver, "ifft", watching(solver.ifft))
        grid = sl.Grid1D(L=80.0, N=256)
        u1, v1 = small_pair(grid)
        solver._step_fields(u1.samples, v1.samples, grid, [0.05, 0.05, 0.02])
        # three steps are four transform pairs
        assert len(calls) == 8
        assert all(thread is threading.current_thread() and in_place for thread, in_place, _, _ in calls)
        assert all(before.shape == (2, grid.N) for _, _, _, before in calls)
        assert np.array_equal(calls[0][3], np.stack([u1.samples, v1.samples]))
        assert len({address for _, _, address, _ in calls}) == 2

    def test_evolve_and_strang_step_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def watched(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", watched)
        grid = sl.Grid1D(L=200.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        sl.strang_step(sl.PairState(u1, v1, 1.0), 0.05)
        run(grid, u1, v1, 3.0, 0.05, eps=0.1)
        assert started == []

    def test_no_thread_outlives_evolve(self):
        grid = sl.Grid1D(L=200.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        before = threading.active_count()
        run(grid, u1, v1, 3.0, 0.05, eps=0.1)
        assert threading.active_count() == before

    def test_no_thread_outlives_failed_evolve(self, monkeypatch):
        skip_sizing_rule(monkeypatch)
        grid = sl.Grid1D(L=30.0, N=256)
        u1, v1 = small_pair(grid, eps=0.5, width=1.0)
        before = threading.active_count()
        with pytest.raises(BoundaryWrapError):
            run(grid, u1, v1, 30.0, 0.05, eps=0.5)
        assert threading.active_count() == before


class TestMetamorphic:
    """Symmetries of the coupled system, which the kernel keeps to round-off
    on any step list at N = 1024: drawn lists of up to 151 steps, and 151
    steps of which the last is short."""

    GRID = sl.Grid1D(L=120.0, N=1024)
    STEPS = [0.05] * 150 + [0.02]
    DATA = dict(
        shape=st.sampled_from(["gaussian", "sech", "modulated"]),
        eps=st.floats(0.05, 0.4),
        carrier=st.floats(-2.0, 2.0),
    )

    @settings(max_examples=20, deadline=None)
    @given(steps=STEP_LISTS, **DATA)
    def test_time_reversal(self, steps, shape, eps, carrier):
        # each substep's inverse is its negative, so the negated reversed
        # step list undoes the run
        data = [f.samples for f in sl.initial_pair(self.GRID, shape, eps, 3.0, carrier)]
        there = solver._step_fields(*data, self.GRID, steps)
        back = solver._step_fields(*there, self.GRID, [-h for h in reversed(steps)])
        peak = max(np.max(np.abs(a)) for a in data)
        for got, want in zip(back, data):
            assert np.max(np.abs(got - want)) < 1e-12 * peak

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(-20, 20), **DATA)
    def test_galilean_boost(self, k, shape, eps, carrier):
        # data boosted by the grid frequency c = 2 pi k / L evolve to the
        # solution shifted by 2 c T and multiplied by e^{i(c x - c^2 T)}
        g = self.GRID
        c = 2.0 * np.pi * k / g.L
        T = sum(self.STEPS)
        xi = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.dx)
        data = [f.samples for f in sl.initial_pair(g, shape, eps, 3.0, carrier)]
        plain = solver._step_fields(*data, g, self.STEPS)
        boosted = solver._step_fields(*(a * np.exp(1j * c * g.x) for a in data), g, self.STEPS)
        factor = np.exp(1j * (c * g.x - c**2 * T))
        peak = max(np.max(np.abs(a)) for a in data)
        for got, a in zip(boosted, plain):
            want = factor * np.fft.ifft(np.fft.fft(a) * np.exp(-2j * c * T * xi))
            assert np.max(np.abs(got - want)) < 1e-11 * peak


def segments_on_configured_grid(u, v, grid, times, dt):
    """The steps of evolve without its solve grid: the kernel driven on the
    configured grid, returning (u, v) at every time."""
    out = [(u, v)]
    for t0, t1 in zip(times, times[1:]):
        u, v = solver._run_segment(u, v, grid, t0, t1, dt)
        out.append((u, v))
    return out


def worst_relative_gap(traj, reference):
    """Largest snapshot difference over the reference fields' peak."""
    worst = 0.0
    for s, (u, v) in zip(traj.snapshots, reference, strict=True):
        peak = max(np.max(np.abs(u)), np.max(np.abs(v)))
        worst = max(worst, np.max(np.abs(s.u.samples - u)) / peak, np.max(np.abs(s.v.samples - v)) / peak)
    return worst


class TestSolveGrid:
    """evolve steps on the data's band (Nyquist >= 2 xi_max) and keeps its
    snapshots on the configured grid."""

    @pytest.mark.parametrize("name, n", [("quick", 756), ("reference", 3840)])
    def test_solve_size_of_shipped_configs(self, name, n):
        grid, _, u1, v1 = sl.build_experiment(sl.parse_config(CONFIGS / f"{name}.cfg"))
        spectra = [sl.fourier_forward(f).samples for f in (u1, v1)]
        assert solver._solve_size(spectra, grid) == n

    def test_zero_data_uses_the_smallest_grid(self):
        grid = sl.Grid1D(L=60.0, N=256)
        assert solver._solve_size([np.zeros(grid.N)] * 2, grid) == 8

    def test_agrees_with_configured_grid_solve(self):
        cfg = sl.parse_config(CONFIGS / "quick.cfg")
        grid, params, u1, v1 = sl.build_experiment(cfg)
        schedule = sl.geometric_schedule(cfg.t_end)
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), cfg.t_end, cfg.dt, schedule, params)
        assert traj.grid is grid and all(s.grid.N == grid.N for s in traj.snapshots)
        full = segments_on_configured_grid(u1.samples, v1.samples, grid, traj.times, cfg.dt)
        assert worst_relative_gap(traj, full) < 1e-11

    def test_independent_of_configured_grid(self):
        # the same data sampled at N and 2N: one solve grid, and snapshots
        # that agree on the common nodes (every other node of the finer grid)
        params = sl.AnalysisParams.make(epsilon=0.1)
        runs, sizes = [], []
        for N in (2048, 4096):
            grid = sl.Grid1D(L=480.0, N=N)
            u1, v1 = small_pair(grid, eps=0.1)
            sizes.append(solver._solve_size([sl.fourier_forward(f).samples for f in (u1, v1)], grid))
            runs.append(sl.evolve(sl.PairState(u1, v1, 1.0), 8.0, 0.02, sl.geometric_schedule(8.0), params))
        assert sizes[0] == sizes[1] == 756
        for a, b in zip(*(r.snapshots for r in runs), strict=True):
            peak = max(np.max(np.abs(a.u.samples)), np.max(np.abs(a.v.samples)))
            for fa, fb in ((a.u, b.u), (a.v, b.v)):
                assert np.max(np.abs(fa.samples - fb.samples[::2])) < 1e-13 * peak

    # width-2 Gaussians on L = 90 solve on 216 points; at eps >= 1 their
    # band edge passes 1e-10 of the peak by t = 1.5 (2.5e-9 at eps = 1,
    # 1.7e-6 at eps = 2), so that segment is redone on 432 points
    @pytest.mark.parametrize("eps, redo", [(0.5, False), (1.0, True), (2.0, True)])
    def test_band_edge_growth_redoes_the_segment(self, eps, redo, monkeypatch):
        segment = solver._run_segment
        calls = []

        def watched(u, v, grid, t0, t1, dt):
            calls.append((grid.N, t0))
            return segment(u, v, grid, t0, t1, dt)

        monkeypatch.setattr(solver, "_run_segment", watched)
        grid = sl.Grid1D(L=90.0, N=1024)
        u1, v1 = small_pair(grid, eps=eps, width=2.0)
        params = sl.AnalysisParams.make(epsilon=eps)
        times = [1.0, 1.5, 2.0, 2.5, 3.0]
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), 3.0, 0.001, times, params)
        n = 432 if redo else 216
        assert calls == [(216, 1.0)] * redo + [(n, t0) for t0 in times[:-1]]
        full = segments_on_configured_grid(u1.samples, v1.samples, grid, times, 0.001)
        assert worst_relative_gap(traj, full) < 1e-11

    def test_band_edge_error_on_configured_grid(self):
        # the same eps = 2 data on a configured grid of 216 points: no larger
        # grid to redo the segment on
        grid = sl.Grid1D(L=90.0, N=216)
        u1, v1 = small_pair(grid, eps=2.0, width=2.0)
        params = sl.AnalysisParams.make(epsilon=2.0)
        with pytest.raises(BandEdgeError, match="N = 216"):
            sl.evolve(sl.PairState(u1, v1, 1.0), 3.0, 0.001, [1.0, 1.5, 2.0], params)

    def test_segment_ends_are_wrapped_without_a_copy(self, monkeypatch):
        # the kernel hands over its (2, 2, n) workspace read-only: evolve
        # wraps both ends of every segment as they are
        wraps = []
        read_only = sl.spectral._read_only

        def recording(arr):
            wraps.append((arr, read_only(arr)))
            return wraps[-1][1]

        monkeypatch.setattr(sl.spectral, "_read_only", recording)
        grid = sl.Grid1D(L=400.0, N=4096)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.2, 3.0, carrier=0.5)
        times = [1.0, 1.5, 2.03]
        sl.evolve(sl.PairState(u1, v1, 1.0), times[-1], 0.05, times, sl.AnalysisParams.make(epsilon=0.2))
        ends = [kept for arr, kept in wraps if isinstance(arr.base, np.ndarray) and arr.base.ndim == 3]
        assert ends == [True] * 2 * (len(times) - 1)

    def test_prolongation_wraps_the_padded_spectrum_without_a_copy(self, monkeypatch):
        # the zero-padded spectrum and its transform are each kept as given
        kept = []
        read_only = sl.spectral._read_only
        monkeypatch.setattr(sl.spectral, "_read_only", lambda arr: kept.append(read_only(arr)) or kept[-1])
        small, grid = sl.Grid1D(L=40.0, N=32), sl.Grid1D(L=40.0, N=64)
        spectrum = sl.fourier_forward(sl.ComplexField(small, np.exp(-small.x**2), "physical")).samples
        kept.clear()
        solver._resample(spectrum, grid)
        assert kept == [True, True]

    def test_grid_rule_rejects_unresolved_data(self):
        # the quick data on 256 points: Nyquist 1.68 against xi_max = 2.48
        grid = sl.Grid1D(L=480.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        with pytest.raises(DomainSizingError, match="grid N = 256"):
            sl.check_domain_for_horizon(u1, v1, 40.0)


class TestInputsUntouched:
    """The kernel transforms in place only buffers it made itself."""

    @pytest.mark.parametrize("N", [256, 2**14])
    def test_step_fields(self, N):
        grid = sl.Grid1D(L=80.0, N=N)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.2, 3.0, carrier=0.5)
        # writable copies, as evolve hands the kernel at each segment's start
        u, v = u1.samples.copy(), v1.samples.copy()
        for steps in ([0.05], [0.05, 0.05, 0.02]):
            solver._step_fields(u, v, grid, steps)
            assert np.array_equal(bits(u), bits(u1.samples))
            assert np.array_equal(bits(v), bits(v1.samples))

    def test_strang_step(self):
        grid = sl.Grid1D(L=80.0, N=256)
        u1, v1 = small_pair(grid)
        state = sl.PairState(u1, v1, 1.0)
        u0, v0 = u1.samples.copy(), v1.samples.copy()
        sl.strang_step(state, 0.05)
        assert np.array_equal(bits(state.u.samples), bits(u0))
        assert np.array_equal(bits(state.v.samples), bits(v0))

    def test_evolve_keeps_initial_state_and_snapshots(self):
        # each stored snapshot equals the end of a run that stops there, so a
        # later segment has not written into it
        grid = sl.Grid1D(L=80.0, N=256)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.2, 3.0, carrier=0.5)
        u0, v0 = u1.samples.copy(), v1.samples.copy()
        params = sl.AnalysisParams.make(epsilon=0.2)
        times = [1.0, 1.3, 1.62, 2.0]
        traj = sl.evolve(sl.PairState(u1, v1, 1.0), times[-1], 0.05, times, params)
        first = traj.snapshots[0]
        for u, v in ((u1.samples, v1.samples), (first.u.samples, first.v.samples)):
            assert np.array_equal(bits(u), bits(u0))
            assert np.array_equal(bits(v), bits(v0))
        for k in range(1, len(times)):
            alone = sl.evolve(sl.PairState(u1, v1, 1.0), times[k], 0.05, times[: k + 1], params)
            got, want = traj.snapshots[k], alone.snapshots[-1]
            assert np.array_equal(bits(got.u.samples), bits(want.u.samples))
            assert np.array_equal(bits(got.v.samples), bits(want.v.samples))


class TestScheduleAndData:
    def test_geometric_schedule_shape(self):
        sched = sl.geometric_schedule(16.0)
        assert sched[0] == 1.0
        assert sched[-1] == 16.0
        ratios = sched[1:-1] / sched[:-2]
        assert np.allclose(ratios, 2.0**0.25, rtol=1e-12)

    def test_initial_pair_shapes(self):
        grid = sl.Grid1D(L=60.0, N=256)
        for shape in ("gaussian", "sech", "modulated"):
            u1, v1 = sl.initial_pair(grid, shape, 0.1, 2.0, carrier=1.0)
            assert sl.norm_Linf(u1) > 0
            # exchange-asymmetric launch
            assert abs(sl.norm_Linf(v1) - 0.75 * sl.norm_Linf(u1)) < 1e-12

    def test_modulated_carrier_shifts_spectrum(self):
        grid = sl.Grid1D(L=120.0, N=1024)
        u1, v1 = sl.initial_pair(grid, "modulated", 0.1, 2.0, carrier=2.0)
        uh = sl.fourier_forward(u1)
        vh = sl.fourier_forward(v1)
        assert abs(grid.xi[np.argmax(np.abs(uh.samples))] - 2.0) < 0.2
        assert abs(grid.xi[np.argmax(np.abs(vh.samples))] + 2.0) < 0.2

    def test_unknown_shape_rejected(self):
        grid = sl.Grid1D(L=60.0, N=256)
        with pytest.raises(ValueError):
            sl.initial_pair(grid, "square", 0.1, 2.0)

    def test_trajectory_is_sendable(self):
        # parameter sweeps fan trajectories across workers; values must pickle
        import pickle

        grid = sl.Grid1D(L=200.0, N=256)
        u1, v1 = small_pair(grid, eps=0.1)
        traj = run(grid, u1, v1, 3.0, 0.05, eps=0.1)
        back = pickle.loads(pickle.dumps(traj))
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(traj.snapshots, back.snapshots):
            assert np.array_equal(a.u.samples, b.u.samples)

    def test_trajectory_invariants(self):
        grid = sl.Grid1D(L=60.0, N=256)
        u1, v1 = small_pair(grid)
        params = sl.AnalysisParams.make()
        good = sl.PairState(u1, v1, 1.0)
        later = sl.PairState(u1, v1, 2.0)
        with pytest.raises(ValueError):
            sl.Trajectory(grid=grid, params=params, snapshots=(later,), dt=0.1)
        with pytest.raises(ValueError):
            sl.Trajectory(grid=grid, params=params, snapshots=(good, good), dt=0.1)
