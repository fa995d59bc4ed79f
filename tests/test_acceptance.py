"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single `ACCEPTANCE <n> [PASS|FAIL] ...` line before
asserting, so the verdicts survive in the log either way.  Runtime target is
well under fifteen minutes for the whole module.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import frontlab as fl
from frontlab import Coupling, SystemParams
from frontlab import pde_sim as ps
from frontlab.designer import unfolding_polynomial_roots
from frontlab.evans import evans_derivative, evans_eval_unchecked, holomorphic_roots
from frontlab.jordan_chain import (jordan_coeffs_closed, jordan_coeffs_recurrence,
                                   jordan_poly, verify_chain_ode)
from frontlab.speed_ode import ScaledNF, _shoot_once, equilibria_and_classification, shilnikov_shoot
from frontlab.verify import reference_parameter_sets

from conftest import hausdorff
from test_designer import random_node_sets

SQRT2 = math.sqrt(2.0)


def report(number, ok, name, detail):
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def evans_small_roots(params, coupling, radius):
    """Roots of E0/lambda (translation removed) in a square of given radius."""
    ctx = fl.evans_context(params, coupling, 0.0)

    def f(z):
        return evans_eval_unchecked(ctx, z) / z

    def df(z):
        return (evans_derivative(ctx, z) * z - evans_eval_unchecked(ctx, z)) / z ** 2

    roots, _ = holomorphic_roots(f, df, (-radius, radius, -radius, radius),
                                 tol=1e-10, cuts=ctx.branch_points)
    return [z for z, m in roots for _ in range(m)]


def test_criterion_1_vandermonde():
    worst_res, worst_rel = 0.0, 0.0
    for nodes, b in random_node_sets(200, seed=1):
        x = fl.vandermonde_solve(nodes, b)
        m = np.vander(nodes, increasing=True).T
        rhs = np.zeros(len(nodes))
        rhs[0] = b
        lu = np.linalg.solve(m, rhs)
        worst_res = max(worst_res, float(np.max(np.abs(m @ x - rhs))) / abs(b))
        worst_rel = max(worst_rel, float(np.max(np.abs(x - lu)))
                        / max(float(np.max(np.abs(lu))), 1e-30))
    ok = worst_res <= 1e-9 and worst_rel <= 1e-9
    assert report(1, ok, "Vandermonde closed form",
                  f"200 node sets: residual {worst_res:.2e} (<=1e-9), "
                  f"LU agreement {worst_rel:.2e} (<=1e-9)")


def test_criterion_2_fourfold_zero_root():
    _, params, coupling, _ = reference_parameter_sets()[0]
    series = fl.evans_taylor_c0(params, coupling, 4)
    low = max(abs(series.coefficient(k)) for k in (1, 2, 3))
    quart = abs(series.coefficient(4))
    rootset = fl.evans_roots(fl.evans_context(params, coupling, 0.0),
                             (-0.05, 0.05, -0.05, 0.05))
    ok = low <= 1e-12 and quart > 0 and rootset.winding_total == 4
    assert report(2, ok, "fourfold zero Evans root",
                  f"|coeffs 1..3| <= {low:.2e} (<=1e-12), coeff4 = {quart:.3f}, "
                  f"winding in |lambda|<=0.05 box = {rootset.winding_total} (=4)")


def test_criterion_3_existence_degeneracies():
    details, ok = [], True
    for (name, params, coupling, (m, _)) in reference_parameter_sets():
        alpha, beta, gamma = fl.design_gamma_degeneracy(params, m)
        repro = (np.allclose(alpha, coupling.alpha, atol=1e-12)
                 and np.allclose(beta, coupling.beta, atol=1e-12)
                 and gamma == coupling.gamma)
        series = fl.gamma0_taylor(params, Coupling(gamma, tuple(alpha), tuple(beta)), m)
        low = max(abs(series.coefficient(k)) for k in range(m))
        lead = abs(series.coefficient(m))
        good = repro and low <= 1e-12 and lead > 1e-6
        ok = ok and good
        details.append(f"{name}: O(c^{m}) low {low:.1e} lead {lead:.1e}")
    assert report(3, ok, "existence degeneracies", "; ".join(details))


def test_criterion_4_jordan_chain():
    printed = {
        1: [1, 1], 2: [1, 1, "1/3"], 3: [1, 1, "2/5", "1/15"],
        4: [1, 1, "3/7", "2/21", "1/105"],
    }
    from fractions import Fraction
    forms_ok = all(
        list(jordan_poly(j, 1.0, 1.0).coeffs) == [Fraction(str(c)) for c in coeffs]
        for j, coeffs in printed.items())
    rec_ok = all(jordan_coeffs_closed(j) == jordan_coeffs_recurrence(j)
                 for j in range(13))
    worst = 0.0
    for tau in (0.5, 1.0, 2.89):
        for j in range(1, 7):
            rep = verify_chain_ode(jordan_poly(j, tau, 1.0),
                                   jordan_poly(j - 1, tau, 1.0),
                                   extent=15.0, step=0.005)
            worst = max(worst, rep.max_residual)
    ok = forms_ok and rec_ok and worst <= 1e-6
    assert report(4, ok, "Jordan-chain closed forms",
                  f"printed v1..v4 exact: {forms_ok}, recurrences exact j<=12: "
                  f"{rec_ok}, ODE residual {worst:.2e} (<=1e-6)")


def test_criterion_5_spectral_cross_validation():
    # NOTE: the Evans limit carries an O(eps) correction amplified by
    # 1/|E0'(root)| near the double root; at eps = 0.05 the stated 15% holds
    # only for the 0.8 ratio (see the notes shipped with the build log).
    params = SystemParams(epsilon=0.05, tau=(1.0,), d=(1.0,))
    alpha_star = 2 * SQRT2 / 3
    grid = ps.make_grid(15.0, 2401, params.epsilon)
    details, ok = [], True
    for frac in (0.8, 0.9, 1.1):
        coupling = Coupling(0.0, (frac * alpha_star,), (0.0,))
        sol = ps.solve_stationary_front(params, coupling, grid=grid)
        spec = ps.linearization_spectrum(sol, count=8)
        translation_ok = abs(spec.translation_eigenvalue) <= 1e-6
        roots = [z.real for z in evans_small_roots(params, coupling, 0.6)
                 if abs(z.imag) < 1e-8]
        predicted = params.epsilon ** 2 * max(roots, key=abs)
        lead = spec.nontrivial()[0].real
        rel = abs(lead - predicted) / abs(predicted)
        good = translation_ok and rel <= 0.15
        ok = ok and good
        details.append(f"alpha={frac}*: lead {lead:.3e} vs eps^2*E0root "
                       f"{predicted:.3e} rel {rel:.1%}, transl "
                       f"{abs(spec.translation_eigenvalue):.1e}")
    assert report(5, ok, "spectral cross-validation (eps > 0)", "; ".join(details))


def test_criterion_6_front_speed_prediction(cusp_setup):
    # decoupled constant forcing
    params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    coup = Coupling(0.1, (0.0,), (0.0,))
    grid = ps.make_grid(20.0, 401, params.epsilon)
    state = ps.initial_front_state(params, coup, grid)
    out = ps.simulate(state, 100.0, output_stride=100, dt=0.01)
    target = params.epsilon ** 2 * 3 * SQRT2 * 0.1 / 2
    rel_dec = abs(out.speed[-1] - target) / target

    # cusp setup: derived roots +-2.289025 in slow units, via both routes
    cparams, ccoup = cusp_setup
    root = fl.gamma0_roots(cparams, ccoup, interval=(-10, 10))[-1][0]
    cgrid = ps.make_grid(24.0, 481, cparams.epsilon)
    sol = ps.solve_travelling_front(cparams, ccoup, guess_c=root, grid=cgrid)
    rel_newton = abs(sol.c - root) / abs(root)

    sim_grid = ps.make_grid(45.0, 901, cparams.epsilon)
    ssol = ps.solve_stationary_front(cparams, ccoup, grid=sim_grid)
    lam_u = max(z.real for z in evans_small_roots(cparams, ccoup, 3.0))
    prof = fl.eigenfunction_c0(cparams, lam_u, ccoup)
    pert = ps.perturb_with_profile(ssol.state, prof, -0.05)
    sim = ps.simulate(pert, 420.0, output_stride=100, dt=0.01)
    rel_sim = abs(abs(sim.speed[-1]) - cparams.epsilon ** 2 * abs(root)) \
        / (cparams.epsilon ** 2 * abs(root))

    ok = rel_dec <= 0.1 and rel_newton <= 0.1 and rel_sim <= 0.1
    assert report(6, ok, "front-speed prediction",
                  f"decoupled {rel_dec:.1%}, cusp Newton {rel_newton:.1%}, "
                  f"cusp simulate {rel_sim:.1%} (all <=10%)")


def test_criterion_7_heteroclinic_speed_transition(cusp_setup):
    params, coupling = cusp_setup
    root = fl.gamma0_roots(params, coupling, interval=(-10, 10))[-1][0]
    grid = ps.make_grid(45.0, 901, params.epsilon)
    sol = ps.solve_stationary_front(params, coupling, grid=grid)
    lam_u = max(z.real for z in evans_small_roots(params, coupling, 3.0))
    prof = fl.eigenfunction_c0(params, lam_u, coupling)
    pert = ps.perturb_with_profile(sol.state, prof, -0.05)
    sim = ps.simulate(pert, 420.0, output_stride=100, dt=0.01)

    target = params.epsilon ** 2 * root
    speed = sim.speed
    n = len(speed)
    tail = speed[int(0.75 * n):]
    within = np.all(np.abs(tail - target) <= 0.1 * abs(target))
    # monotone transition between the c = 0 and c = root plateaus (2% slack
    # of the final plateau for step-scale wiggle)
    slack = 0.02 * abs(target)
    monotone = np.all(np.diff(speed) >= -slack)
    ok = bool(within and monotone and sim.aborted is None)
    assert report(7, ok, "heteroclinic front-speed dynamics",
                  f"final-25% window within 10% of eps^2*root: {bool(within)}, "
                  f"monotone (2% slack): {bool(monotone)}")


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_criterion_8_continuation_structure():
    _, params, coupling0, _ = reference_parameter_sets()[0]
    coupling = Coupling(0.011, (2.38,) + coupling0.alpha[1:], coupling0.beta)
    grid = ps.make_grid(20.0, 4001, params.epsilon)
    points = ps.continue_branch(params, coupling, "alpha1", (2.36, 2.50),
                                ds=0.01, grid=grid, max_points=40,
                                guess_c=0.43, n_eigs=10)
    folds = [i for i, pt in enumerate(points) if pt.tag == "fold"]
    hopfs = [i for i, pt in enumerate(points) if pt.tag == "hopf"]
    ok = bool(folds) and bool(hopfs) and min(hopfs) > min(folds)
    assert report(8, ok, "continuation structure",
                  f"{len(points)} points on >=1000-node grid; fold indices "
                  f"{folds}, Hopf candidate indices {hopfs} (fold first)")


def test_criterion_9_saddle_focus_classification():
    nf = ScaledNF.shilnikov(-1.0, -0.5, 0.0, a11=1.0, normalize=True)
    eqs = equilibria_and_classification(nf)
    kinds = {round(e.c_star, 6): e.kind for e in eqs}
    focus = [e for e in eqs if e.kind == "saddle-focus(1u,2s)"]
    eig_ok = False
    if focus:
        eq = focus[0]
        # companion-matrix oracle for the characteristic polynomial
        jac = nf.jacobian_at(eq.state)
        comp = np.zeros((3, 3))
        comp[0, 1] = comp[1, 2] = 1.0
        comp[2] = jac[2]
        oracle = np.sort_complex(np.linalg.eigvals(comp))
        eig_ok = bool(np.max(np.abs(np.sort_complex(np.array(eq.eigenvalues))
                                    - oracle)) <= 1e-10)
    guard_ok = False
    try:
        shilnikov_shoot(ScaledNF.shilnikov(1.0, -0.5, 0.0, a11=1.0),
                        np.linspace(-1, 0, 3))
    except fl.FrontlabError:
        guard_ok = True
    ok = bool(focus) and eig_ok and guard_ok
    assert report(9, ok, "speed-ODE saddle-focus machinery",
                  f"kinds {kinds}; eigenvalues vs companion oracle <=1e-10: "
                  f"{eig_ok}; lambda*a11>0 sweep rejected: {guard_ok}")


def test_criterion_10_shilnikov_shooting_contract():
    tol = 1e-6
    # sweep with a sign change: candidates must be tolerance-stable
    nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
    res = shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=tol, t_max=300.0)
    cand_ok = bool(res.candidates)
    stable_ok = False
    if cand_ok:
        cand = res.candidates[0]
        refined = _shoot_once(replace(nf, nu=(0.0, -1.0, cand.nu_bar)),
                              t_max=300.0, integrator_tol=1e-11)
        stable_ok = refined.status == "ok" and abs(refined.miss) < 10 * tol

    # sweep without a sign change: the full signed trace comes back
    res2 = shilnikov_shoot(ScaledNF.shilnikov(-1.0, -0.5, -1.6, a11=1.0),
                           np.linspace(-2.0, -1.25, 7), tol=tol, t_max=300.0)
    trace_ok = (res2.candidates == () and len(res2.trace) == 7
                and all(p.status == "ok" for p in res2.trace)
                and not res2.has_sign_change)
    ok = cand_ok and stable_ok and trace_ok
    assert report(10, ok, "Shil'nikov shooting contract",
                  f"candidate at nu_bar={res.candidates[0].nu_bar:.6f} "
                  f"(rho_s={res.candidates[0].rho_s:.3f}) tol-stable: {stable_ok}; "
                  f"no-change sweep returns full trace: {trace_ok}")


def test_criterion_11_unfolding_accuracy():
    params = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
    base = fl.design_evans_degeneracy(params)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        delta = 10 ** rng.uniform(-3, -2) * direction
        abar = fl.linear_unfolding_map(params, delta)
        pred = unfolding_polynomial_roots(abar)
        coupling = Coupling(0.0, tuple(base + delta), (0.0,) * 3)
        r = 3.0 * max(float(np.max(np.abs(pred))), 1e-4)
        found = evans_small_roots(params, coupling, r)
        ratio = hausdorff(pred, found) / float(np.dot(delta, delta))
        worst = max(worst, ratio)
    ok = worst <= 10.0
    assert report(11, ok, "unfolding-map accuracy",
                  f"50 perturbations |da|<=1e-2: worst Hausdorff/|da|^2 = "
                  f"{worst:.2f} (<=10)")


def test_criterion_12_imprinting_round_trip():
    # tau/(2d) = 0.8, well clear of the sqrt2/3 ~ 0.4714 degeneracy
    params = SystemParams(epsilon=0.05, tau=(1.6,), d=(1.0,))
    assert abs(params.tau[0] / (2 * params.d[0]) - SQRT2 / 3) > 0.1
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 7))
        targets = rng.uniform(-1, 1, order + 1)
        coupling = fl.imprint_scalar_singularity(params, targets)
        series = fl.gamma0_taylor(params, coupling, order)
        worst = max(worst, float(np.max(np.abs(np.asarray(series.coeffs)
                                               - targets))))
    ok = worst <= 1e-10
    assert report(12, ok, "imprinting round-trip",
                  f"100 random targets (M<=6): worst coefficient error "
                  f"{worst:.2e} (<=1e-10)")
