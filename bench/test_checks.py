"""The benchmark's checks pass on frontlab's outputs and trip on corrupted ones.

Run from the root of the repository:

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import frontlab as fl  # noqa: E402
import frontlab.verify  # noqa: E402,F401  (reference sets)
from frontlab import pde_sim as ps  # noqa: E402
from frontlab.speed_ode import ScaledNF, equilibria_and_classification, integrate  # noqa: E402

import checks as ck  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402
import reference as ref  # noqa: E402

SPEEDS = [-2.1, -0.7, 0.4, 1.3, 2.4]


@pytest.fixture(scope="module")
def planted():
    model = ref.planted_coupling(1.6, 1.0, SPEEDS)
    params = fl.SystemParams(epsilon=0.05, tau=model.tau, d=model.d)
    coupling = fl.Coupling(model.gamma, model.alpha, model.beta, model.higher)
    return model, params, coupling


@pytest.fixture(scope="module")
def cusp_front():
    params = fl.SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    coupling = fl.Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
    grid = ps.make_grid(10.0, 201)
    sol = ps.solve_stationary_front(params, coupling, grid=grid)
    return ref.model_of(params, coupling), params, grid, sol


def test_gamma0_roots_zero(planted):
    model, params, coupling = planted
    roots = [r for r, _m in fl.gamma0_roots(params, coupling, interval=(-3, 3))]
    assert ck.gamma0_roots_zero("g", model, roots).ok
    shifted = roots[:2] + [roots[2] + 1e-4] + roots[3:]
    assert not ck.gamma0_roots_zero("g", model, shifted).ok


def test_planted_recall(planted):
    _model, params, coupling = planted
    pairs = list(fl.gamma0_roots(params, coupling, interval=(-3, 3)))
    assert ck.planted_recall(SPEEDS, pairs) == (5, [])
    assert ck.planted_recall(SPEEDS, pairs[:2] + pairs[3:])[1] == [SPEEDS[2]]
    doubled = pairs[:2] + [(pairs[2][0], 2)] + pairs[3:]
    assert ck.planted_recall(SPEEDS, doubled)[1] == [SPEEDS[2]]


def test_close_pair_fault_is_visible():
    # the named scan fault: 0.32 is lost next to 0.30 on a 0.05 scan grid
    speeds = [-1.5, 0.30, 0.32, 1.2, 2.0]
    model = ref.planted_coupling(0.5, 1.0, speeds)
    params = fl.SystemParams(epsilon=0.05, tau=model.tau, d=model.d)
    coupling = fl.Coupling(model.gamma, model.alpha, model.beta, model.higher)
    pairs = list(fl.gamma0_roots(params, coupling, interval=(-3, 3)))
    assert ck.planted_recall(speeds, pairs)[1] == [0.32]
    assert ref.scan_roots(model, -3, 3) == pytest.approx(speeds, abs=1e-9)


def _fault_roots(speeds, double=None):
    model = ref.planted_coupling(0.5, 1.0, speeds, double)
    params = fl.SystemParams(epsilon=0.05, tau=model.tau, d=model.d)
    coupling = fl.Coupling(model.gamma, model.alpha, model.beta, model.higher)
    return model, list(fl.gamma0_roots(params, coupling, interval=(-3, 3)))


def test_duplicate_root_fault_is_visible():
    # -0.38 comes back twice, about 1e-9 apart; the closed form has it once
    speeds = [-0.64, -0.38, -0.06, 1.49, 2.57]
    model, pairs = _fault_roots(speeds)
    assert ck.planted_recall(speeds, pairs)[1] == [-0.38]
    assert ref.scan_roots(model, -3, 3) == pytest.approx(speeds, abs=1e-9)


def test_double_root_fault_is_visible():
    # the planted double root comes back off and simple; a correct report passes
    speeds = [-2.66, -1.22, -0.15, 0.79]
    model, pairs = _fault_roots(speeds, double=-1.22)
    assert abs(ref.gamma0(model, -1.22)) < 1e-12
    assert abs(ref.gamma0_prime(model, -1.22)) < 1e-9
    assert ck.planted_recall(speeds, pairs, double=-1.22)[1] == [-1.22]
    fixed = [(r, m) for r, m in pairs if abs(r + 1.22) > 1e-3] + [(-1.22 + 1e-7, 2)]
    assert ck.planted_recall(speeds, fixed, double=-1.22) == (4, [])
    assert ck.planted_recall(speeds, fixed[:-1] + [(-1.22, 1)], double=-1.22)[1] == [-1.22]


def test_evans_roots_zero():
    _n, params, coupling, _o = fl.verify.reference_parameter_sets()[0]
    base = ref.fourfold_alpha(params.tau, params.d)
    delta = np.array([2e-3, -1e-3, 1e-3])
    pert = fl.Coupling(0.0, tuple(base + delta), (0.0,) * 3)
    model = ref.model_of(params, pert)
    found = fl.evans_roots(fl.evans_context(params, pert), (-0.3, 0.3, -0.3, 0.3))
    assert ck.evans_roots_zero("e", model, 0.0, found.roots).ok
    assert ck.winding_resolved("w", found).ok
    moved = [(z + 1e-3, m) for z, m in found.roots]
    assert not ck.evans_roots_zero("e", model, 0.0, moved).ok

    predicted = ref.unfolding_roots(params.tau, params.d, base, delta)
    small = [z for z, m in found.roots for _ in range(m) if abs(z) > 1e-8]
    assert ck.unfolding_accuracy("u", predicted, small, delta).ok
    assert not ck.unfolding_accuracy("u", predicted, [z + 1e-3 for z in small], delta).ok
    assert not ck.unfolding_accuracy("u", predicted, small[:-1], delta).ok


def test_series_checks():
    _n, params, coupling, (m, mult) = fl.verify.reference_parameter_sets()[1]
    model = ref.model_of(params, coupling)
    own = ref.gamma0_series(model, m)
    got = fl.gamma0_taylor(params, coupling, m).coeffs
    assert ck.series_equal("s", got, own, 1e-12).ok
    assert ck.series_has_order("o", own, m).ok
    bumped = np.array(own)
    bumped[1] += 1e-9
    assert not ck.series_equal("s", got, bumped, 1e-12).ok
    assert not ck.series_has_order("o", bumped, m).ok
    ev = ref.evans_series_c0(model, mult)
    assert ck.series_equal("e", fl.evans_taylor_c0(params, coupling, mult).coeffs, ev, 1e-12).ok
    assert not ck.series_has_order("o", ev, mult + 1).ok


def test_vandermonde_and_imprint():
    nodes = np.array([0.6, 1.4, 2.9, 4.1])
    x = fl.vandermonde_solve(nodes, 2.0)
    assert ck.vandermonde_residual("v", nodes, 2.0, x).ok
    assert not ck.vandermonde_residual("v", nodes, 2.0, x * (1 + 1e-6)).ok
    params = fl.SystemParams(epsilon=0.05, tau=(1.6,), d=(1.0,))
    targets = np.array([0.2, -0.5, 0.3, 0.9])
    coupling = fl.imprint_scalar_singularity(params, targets)
    own = ref.gamma0_series(ref.model_of(params, coupling), 3)
    assert ck.series_equal("i", own, targets, 1e-10).ok
    wrong = fl.Coupling(coupling.gamma, coupling.alpha, (coupling.beta[0] + 1e-6,),
                        coupling.higher)
    assert not ck.series_equal("i", ref.gamma0_series(ref.model_of(params, wrong), 3),
                               targets, 1e-10).ok


def test_jordan_and_chain():
    for j in range(7):
        assert ck.jordan_exact("j", j, fl.jordan_poly(j, 2.0, 1.5).coeffs).ok
    coeffs = list(fl.jordan_poly(3, 2.0, 1.5).coeffs)
    coeffs[2] += ref.Fraction(1, 10 ** 6)
    assert not ck.jordan_exact("j", 3, coeffs).ok
    _n, params, coupling, _o = fl.verify.reference_parameter_sets()[0]
    prof = fl.chain_profile(params, coupling, 2, 3)
    assert ck.chain_plateau("c", prof, 2, params.tau, params.d).ok
    assert not ck.chain_plateau("c", prof, 1, params.tau, params.d).ok


def test_equilibria_oracle():
    nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
    eqs = equilibria_and_classification(nf)
    assert ck.equilibria_oracle("q", nf.nu0, nf.nu, nf.a11, nf.a12, nf.delta, eqs).ok
    bad = [type(eqs[0])(c_star=eqs[0].c_star, kind=eqs[0].kind,
                        eigenvalues=tuple(z * 1.001 for z in eqs[0].eigenvalues))] + eqs[1:]
    assert not ck.equilibria_oracle("q", nf.nu0, nf.nu, nf.a11, nf.a12, nf.delta, bad).ok
    shifted = [type(e)(c_star=e.c_star + 1e-6, kind=e.kind, eigenvalues=e.eigenvalues)
               for e in eqs]
    assert not ck.equilibria_oracle("q", nf.nu0, nf.nu, nf.a11, nf.a12, nf.delta,
                                    shifted).ok


def test_trajectory_and_lyapunov():
    nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
    tr = integrate(nf, np.array([-0.98, 0.0, 0.0]), 30.0, tol=1e-9)

    def field(z, scale=1.0):
        last = nf.nu0 + float(np.dot(nf.nu, z)) + nf.a11 * z[0] ** 2
        return np.array([z[1], z[2], scale * last])

    assert ck.trajectory_solves("t", field, tr).ok
    assert not ck.trajectory_solves("t", lambda z: field(z, 1.01), tr).ok
    assert ck.lyapunov_near_zero("l", 1e-3, 3.9).ok
    assert not ck.lyapunov_near_zero("l", 0.1, 3.9).ok


def test_shooting_contract():
    nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
    res = fl.shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=1e-6, t_max=300.0)
    assert ck.shooting_contract("s", res, 1e-6, True).ok
    assert not ck.shooting_contract("s", res, 1e-6, False).ok
    cand = res.candidates[0]
    moved = type(res)(candidates=(type(cand)(nu_bar=cand.nu_bar + 0.3, miss=cand.miss,
                                             rho_s=cand.rho_s),),
                      trace=res.trace, branch_equilibria=res.branch_equilibria)
    assert not ck.shooting_contract("s", moved, 1e-6, True).ok


def test_speed_checks():
    want = ref.decoupled_speed(0.2, 0.1)
    assert ck.relative("r", want * 1.005, want, 0.01).ok
    assert not ck.relative("r", want * 1.05, want, 0.01).ok
    target = 0.04 * ref.cusp_speed()
    rising = target * (1.0 - np.exp(-np.linspace(0.0, 8.0, 40)))
    assert ck.speed_transition("c", rising, target).ok
    assert not ck.speed_transition("c", 0.8 * rising, target).ok
    dip = rising.copy()
    dip[20] -= 0.1 * target
    assert not ck.speed_transition("c", dip, target).ok
    assert ref.cusp_speed() == pytest.approx(2.2890251694806, abs=1e-10)


def test_steady_front(cusp_front):
    model, params, grid, sol = cusp_front
    st = sol.state
    args = (model, params.epsilon, grid.h)
    assert ck.steady_front("f", *args, st.u, st.v, 0.0, stationary=True).ok
    u = st.u.copy()
    u[50] += 1e-6
    assert not ck.steady_front("f", *args, u, st.v, 0.0, stationary=True).ok
    shifted = np.roll(st.u, 1)
    assert not ck.steady_front("f", *args, shifted, st.v, 0.0, stationary=True).ok
    assert not ck.steady_front("f", *args, st.u, st.v, 0.05).ok


def test_eigenvalues_of(cusp_front):
    model, params, grid, sol = cusp_front
    st = sol.state
    spec = ps.linearization_spectrum(sol, count=6)
    jac = ref.dynamic_jacobian(model, params.epsilon, grid.h, st.u, st.v, sol.c)
    assert ck.eigenvalues_of("e", jac, spec.eigenvalues).ok
    wrong = np.array(spec.eigenvalues) * 1.01
    assert not ck.eigenvalues_of("e", jac, wrong).ok


def test_branch_turns_once():
    params = [2.38, 2.39, 2.41, 2.44, 2.43, 2.39, 2.33]
    assert ck.branch_turns_once("b", params, [3], 2.3852).ok
    assert not ck.branch_turns_once("b", params, [3], 2.20).ok
    assert not ck.branch_turns_once("b", params, [], 2.3852).ok
    wiggle = params[:5] + [2.435] + params[6:]
    assert not ck.branch_turns_once("b", wiggle, [3], 2.3852).ok


def test_singular_fold_and_stencil_jacobian():
    _n, params, base, _o = fl.verify.reference_parameter_sets()[0]
    coupling = fl.Coupling(0.011, (2.38,) + base.alpha[1:], base.beta)
    alpha1, c = ref.singular_fold_alpha1(ref.model_of(params, coupling), 0.05, 0.6)
    assert alpha1 == pytest.approx(2.3852, abs=1e-3)
    assert 0.05 < c < 0.6
    # the fold closes Gamma0 and its c-derivative at once
    model = ref.model_of(params, fl.Coupling(0.011, (alpha1,) + base.alpha[1:], base.beta))
    assert abs(ref.gamma0(model, c)) < 1e-12
    assert abs(ref.gamma0_prime(model, c)) < 1e-9
    grid = ps.make_grid(10.0, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # h = 0.1 under-resolves eps = 0.03: fine here
        sol = ps.solve_stationary_front(params, fl.Coupling(0.0, base.alpha, base.beta),
                                        grid=grid)
    st = sol.state
    x = np.concatenate([st.u, st.v.ravel()])
    theirs = ps._FrontSystem(params, st.coupling, grid).dynamic_jacobian(x, 0.0)
    mine = ref.dynamic_jacobian(ref.model_of(params, st.coupling), params.epsilon, grid.h,
                                st.u, st.v, 0.0)
    assert abs(theirs - mine).max() <= 1e-12 * max(1.0, abs(theirs).max())
    assert math.isfinite(abs(mine).max())


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == metrics.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == ["analysis", "pde_dynamics", "pde_branch"]


def test_probe_keeps_repeats_at_the_usual_speed():
    sp = probe.SpeedProbe()
    sp.starts = [0.04 * i for i in range(100)]
    sp.durations = [400e-6 if i % 10 < 7 else 200e-6 for i in range(100)]
    usual = sp.usual()
    assert usual == pytest.approx(400e-6)
    normal, fast = (400e-6,) * 20, (200e-6,) * 20
    # a repeat taken in a fast spell is dropped, not rescaled
    assert probe.steady_median([(1.0, normal), (0.6, fast), (1.2, normal)], usual, 1.0) == 1.1
    # with none at the usual speed, the one with the fewest off-speed samples
    assert probe.steady_median([(0.6, fast), (0.8, fast[:10] + normal[:10])], usual, 0.0) == 0.8
    # an item shorter than the probe interval is judged by the nearest samples
    assert sp.item(0.281, 0.282)[1] == (200e-6, 200e-6, 400e-6)


def test_probe_elasticity_rescales_only_items_never_at_the_usual_speed():
    usual = 400e-6
    normal, fast = (400e-6,) * 20, (200e-6,) * 20
    # work that takes 1/2 in a spell where the kernel takes 1/2: e = 1
    items = [[(t, normal), (t / 2, fast)] for t in (0.1, 0.2, 0.3, 0.4, 0.5)] * 2
    e, pairs = probe.elasticity(items, usual)
    assert (e, pairs) == (pytest.approx(1.0), 10)
    assert probe.steady_median([(0.3, fast), (0.35, fast)], usual, e) == pytest.approx(0.6)
    # too few pairs: nothing is rescaled
    assert probe.elasticity(items[:3], usual) == (0.0, 3)

