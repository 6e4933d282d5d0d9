"""
End-to-end acceptance suite.  Each test prints one [PASS]/[FAIL] line; run

    pytest tests/test_acceptance.py -v -s

to see them all.  The suite reuses the session-scoped production runs from
conftest.  One check is expected to fail and is kept failing on purpose: the
L1 interpolation inequality with constant 2 (see test_inequality_l1_constant_2
for the measured counterexample; the provable constant is 2*sqrt(2), the
sharp one sqrt(2*pi)).
"""

import numpy as np

import scatterlab as sl
from scatterlab.cli import smooth_random_input
from conftest import coarsen


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_mass_conservation(main_analysis):
    drift = 0.0
    for m in (main_analysis.u_mass, main_analysis.v_mass):
        drift = max(drift, float(np.max(np.abs(m - m[0])) / m[0]))
    report(drift <= 1e-10, "mass conservation", f"relative drift {drift:.2e} <= 1e-10")


def test_splitting_order():
    grid = sl.Grid1D(L=90.0, N=1024)
    u1, v1 = sl.initial_pair(grid, "gaussian", 0.2, 2.0)
    params = sl.AnalysisParams.make(epsilon=0.2)
    sched = np.array([1.0, 2.0])

    def final(dt):
        return sl.evolve(sl.PairState(u1, v1, 1.0), 2.0, dt, sched, params).snapshots[-1]

    ref = final(0.0025)  # dt/8 reference
    e1 = np.max(np.abs(final(0.02).u.samples - ref.u.samples))
    e2 = np.max(np.abs(final(0.01).u.samples - ref.u.samples))
    ratio = e1 / e2
    report(3.5 <= ratio <= 4.5, "splitting order", f"halving-dt error ratio {ratio:.2f} in [3.5, 4.5]")


def test_propagator_oracle():
    worst_kernel = 0.0
    for t, L in ((0.5, 40.0), (1.0, 40.0), (2.0, 64.0)):
        grid = sl.Grid1D(L=L, N=512)
        f = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
        kv = sl.kernel_evolve(f, t).samples
        fv = sl.free_evolve(f, t).samples
        worst_kernel = max(worst_kernel, np.max(np.abs(kv - fv)) / np.max(np.abs(fv)))
    grid = sl.Grid1D(L=80.0, N=2048)
    f = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
    c = 1.0 + 4j
    closed = c**-0.5 * np.exp(-grid.x**2 / c)
    worst_closed = np.max(np.abs(sl.free_evolve(f, 1.0).samples - closed))
    ok = worst_kernel <= 1e-6 and worst_closed <= 1e-8
    report(
        ok,
        "propagator oracle",
        f"kernel vs spectral {worst_kernel:.2e} <= 1e-06, closed form {worst_closed:.2e} <= 1e-08",
    )


def test_decay_exponents(main_analysis):
    mask = main_analysis.times >= 10.0 * (1 - 1e-9)
    ts = main_analysis.times[mask]
    eu = sl.fit_rate(ts, main_analysis.u_linf[mask]).exponent
    ev = sl.fit_rate(ts, main_analysis.v_linf[mask]).exponent
    ok = -0.6 <= eu <= -0.4 and -0.6 <= ev <= -0.4
    report(ok, "max-norm decay", f"u {eu:.3f}, v {ev:.3f} in [-0.6, -0.4] over t in [10, 200]")


def test_remainder_decay(main_traj):
    sub = sl.Trajectory(
        grid=main_traj.grid,
        params=main_traj.params,
        snapshots=tuple(s for s in main_traj.snapshots if s.t <= 100.0 * (1 + 1e-9)),
        dt=main_traj.dt,
    )
    rep = sl.remainder_decay_fit(sub)
    finite = rep.bound_ratios[np.isfinite(rep.bound_ratios)]
    spread = float(np.max(finite) / np.median(finite))
    ok = rep.fit.exponent <= -1.0 and spread <= 10.0
    report(
        ok,
        "remainder decay",
        f"exponent {rep.fit.exponent:.3f} <= -1.0, bound-ratio max/median {spread:.2f} <= 10",
    )


def test_representation_equivalence():
    worst_pair = 0.0
    worst_split = 0.0
    count = 0
    for s, L, width in ((1.0, 24.0, 1.25), (2.0, 32.0, 1.5), (10.0, 80.0, 3.5)):
        grid = sl.Grid1D(L=L, N=64)
        rng = np.random.default_rng(int(s))
        for _ in range(7):
            inp = smooth_random_input(grid, width, rng, s)
            count += 1
            fast = sl.remainder_physical(inp).samples
            slow = sl.remainder_oracle(inp).samples
            scale = np.max(np.abs(fast))
            worst_pair = max(worst_pair, np.max(np.abs(fast - slow)) / scale)
            i_term, n_term = sl.remainder_split(inp)
            recomposed = i_term.samples + n_term.samples / inp.s
            worst_split = max(worst_split, np.max(np.abs(recomposed - fast)) / scale)
    ok = worst_pair <= 1e-6 and worst_split <= 1e-12
    report(
        ok,
        "remainder representations",
        f"{count} random inputs: oracle gap {worst_pair:.2e} <= 1e-06, "
        f"split recomposition {worst_split:.2e} <= 1e-12",
    )


def test_reduced_equation_richardson(richardson_traj):
    fine = richardson_traj
    coarse = coarsen(fine)
    w_f, _, _, acc_f = sl.corrected_spectra(fine)
    w_c, _, _, acc_c = sl.corrected_spectra(coarse)
    ratios = []
    for m_c in (4, 6, 8):
        r_c = sl.reduced_ode_residual(coarse, m_c, w_c, acc_c)
        r_f = sl.reduced_ode_residual(fine, 2 * m_c, w_f, acc_f)
        ratios.append(r_c / r_f)
    med = float(np.median(ratios))
    report(
        3.5 <= med <= 4.5,
        "reduced-equation residual",
        f"snapshot-halving ratios {[f'{r:.2f}' for r in ratios]}, median {med:.2f} in [3.5, 4.5]",
    )


def test_modified_scattering(main_analysis):
    msgs = []
    ok = True
    for name, est in (("u", main_analysis.est_u), ("v", main_analysis.est_v)):
        cau = [d for t, d in est.cauchy if 8.0 * (1 - 1e-9) <= t <= 100.0 * (1 + 1e-9)]
        mono = len(cau) >= 4 and all(b < a for a, b in zip(cau, cau[1:]))
        e_linf = est.fit_linf.exponent
        e_h0n = est.fit_h0n.exponent
        ordered = e_h0n >= e_linf - 0.02  # fit-noise allowance
        ok = ok and mono and e_linf <= -0.2 and e_h0n <= -0.05 and ordered
        msgs.append(f"{name}: linf {e_linf:.3f} <= -0.2, h0n {e_h0n:.3f} <= -0.05, "
                    f"{len(cau)} dyadic pairs monotone={mono}")
    report(ok, "modified scattering", "; ".join(msgs))


def test_asymptotic_formula_coupled(asym_traj):
    ana = sl.analyze_trajectory(asym_traj)
    mask = (ana.times >= 16.0 * (1 - 1e-9)) & np.isfinite(ana.asym_u) & np.isfinite(ana.asym_v)
    ts = ana.times[mask]
    eu = sl.fit_rate(ts, ana.asym_u[mask]).exponent
    ev = sl.fit_rate(ts, ana.asym_v[mask]).exponent
    ok = len(ts) >= 10 and eu <= -0.55 and ev <= -0.55
    report(
        ok,
        "asymptotic formula",
        f"residual exponents u {eu:.3f}, v {ev:.3f} <= -0.55 over t in [16, 256]",
    )


def test_asymptotic_formula_linear_case(linear_traj):
    ana = sl.analyze_trajectory(linear_traj)
    phi = sl.free_evolve(linear_traj.snapshots[0].u, -1.0)
    ts, residuals, worst_gap = [], [], 0.0
    for i, t in enumerate(ana.times):
        if not np.isfinite(ana.asym_u[i]):
            continue
        a_norm = sl.norm_Linf(sl.leading_split(phi, t).remainder)
        worst_gap = max(worst_gap, abs(ana.asym_u[i] - a_norm) / a_norm)
        ts.append(t)
        residuals.append(ana.asym_u[i])
    slope = sl.fit_rate(ts, residuals).exponent
    ok = worst_gap <= 1e-8 and slope <= -0.7
    report(
        ok,
        "asymptotic formula, decoupled case",
        f"residual equals the leading-split remainder to {worst_gap:.2e}, slope {slope:.3f} <= -0.7",
    )


def test_modulus_conservation(main_traj):
    worst = 0.0
    for wf, state in zip(sl.corrected_spectra(main_traj)[0], main_traj.snapshots):
        u_hat = sl.fourier_forward(state.u)
        worst = max(worst, float(np.max(np.abs(np.abs(wf) - np.abs(u_hat.samples)))))
    report(worst <= 1e-12, "modulus conservation", f"max |w_f| vs |u_hat| gap {worst:.2e} <= 1e-12")


def _inequality_fields():
    grid = sl.Grid1D(L=80.0, N=1024)
    fields = []
    for seed in range(100):
        r = np.random.default_rng(seed)
        w = r.uniform(1.0, 3.0)
        z = grid.x / w
        coeff = r.normal(size=4) + 1j * r.normal(size=4)
        poly = sum(c * z**j for j, c in enumerate(coeff))
        fields.append(sl.ComplexField(grid, np.exp(-(z**2) / 2) * poly, "physical"))
    fields.append(sl.ComplexField(grid, np.exp(-grid.x**2 / 2), "physical"))
    return fields


def test_inequality_l1_constant_2():
    # Stated constant 2.  This is known to fail: the Gaussian e^{-x^2/2}
    # already gives ||f||_1 / sqrt(||f||_2 ||xf||_2) = 2.2390, and the sharp
    # constant sqrt(2*pi) = 2.5066 is attained by 1/(1+x^2).  Kept failing
    # on purpose; the provable variant is checked separately below.
    worst = 0.0
    violations = 0
    for f in _inequality_fields():
        lhs, rhs = sl.interpolation_pairs(f, 0)["l1"]
        worst = max(worst, lhs / rhs)
        if lhs > 2.0 * rhs:
            violations += 1
    report(
        violations == 0,
        "L1 interpolation, constant 2",
        f"{violations}/101 fields violate; worst ratio {worst:.4f} vs 2",
    )


def test_inequality_suites_provable():
    worst_l1 = worst_chain = worst_holder = 0.0
    for f in _inequality_fields():
        lhs, rhs = sl.interpolation_pairs(f, 0)["l1"]
        worst_l1 = max(worst_l1, lhs / rhs)
        for n in (0, 1, 2):
            pairs = sl.interpolation_pairs(f, n)
            wl, wlr = pairs["weighted_l2"]
            hl, hlr = pairs["holder_step"]
            worst_chain = max(worst_chain, wl / wlr)
            worst_holder = max(worst_holder, hl / hlr)
    ok = (
        worst_l1 <= sl.scattering.L1_INTERP_CONSTANT_SAFE
        and worst_chain <= 1.0 + 1e-9
        and worst_holder <= 1.0 + 1e-12
    )
    report(
        ok,
        "interpolation inequalities",
        f"L1 ratio {worst_l1:.4f} <= 2*sqrt(2), weighted chain {worst_chain:.4f} <= 1, "
        f"Holder step {worst_holder:.4f} <= 1",
    )


def test_inequality_convexity_constant():
    rng = np.random.default_rng(7)
    ok = True
    for n in (0, 1, 2, 3):
        triples = rng.uniform(-30.0, 30.0, size=(100_000, 3))
        p = 2 * n + 1
        xi, eta, sigma = triples.T
        lhs = np.abs(xi) ** p
        rhs = np.abs(xi - sigma) ** p + np.abs(xi - eta) ** p + np.abs(xi - sigma - eta) ** p
        ok = ok and bool(np.all(lhs <= 3.0 ** (2 * n) * rhs * (1 + 1e-12)))
        # constant is minimal: the ratio is approached at sigma = eta = 2 xi/3
        ok = ok and abs(1.0 / (3 * (1 / 3) ** p) - 3.0 ** (2 * n)) < 1e-9
    report(ok, "odd-power split constant", "3^(2n) holds and is minimal for n <= 3")


def test_determinism(tmp_path):
    cfg = """
grid.L = 480
grid.N = 4096
solver.dt = 0.02
solver.t_end = 40
data.shape = gaussian
data.epsilon = 0.1
data.width = 3.0
analysis.alpha = 0.01
analysis.delta = 0.24
analysis.beta = 0.2
analysis.n = 1
io.save_snapshots = false
"""
    from scatterlab.cli import main

    path = tmp_path / "exp.cfg"
    path.write_text(cfg)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["decay", "--config", str(path), "--outdir", str(out), "--seed", "3"])
        assert rc == 0
        outs.append((out / "snapshots.csv").read_bytes() + (out / "decay_report.txt").read_bytes())
    report(outs[0] == outs[1], "determinism", "repeated runs emit bit-identical CSV and report")
