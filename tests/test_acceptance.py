"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single `ACCEPTANCE <n> [PASS|FAIL] ...` line before
asserting, so the verdicts survive in the log either way.  Criteria 1-4 and
9-12 are defined in `frontlab.verify`, which `frontlab verify` runs too;
criteria 5-8, the PDE ones, are defined here.  Runtime target is well under
fifteen minutes for the whole module.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import frontlab as fl
from frontlab import Coupling, SystemParams, verify
from frontlab import pde_sim as ps
from frontlab.cli import dispatch
from frontlab.verify import Verdict, evans_small_roots, reference_parameter_sets

SQRT2 = math.sqrt(2.0)


def report(verdict):
    print("\n" + verdict.line)
    return verdict.ok


def test_criterion_1_vandermonde():
    assert report(verify.criterion_1_vandermonde())


def test_criterion_2_fourfold_zero_root():
    assert report(verify.criterion_2_fourfold_zero_root())


def test_criterion_3_existence_degeneracies():
    assert report(verify.criterion_3_existence_degeneracies())


def test_criterion_4_jordan_chain():
    assert report(verify.criterion_4_jordan_chain())


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
    assert report(Verdict(5, ok, "spectral cross-validation (eps > 0)", "; ".join(details)))


@pytest.fixture(scope="module")
def cusp_simulation(cusp_setup):
    """Criteria 6 and 7's cusp run, made once: the stationary front on 901
    nodes, pushed along its unstable mode and simulated to t = 420."""
    params, coupling = cusp_setup
    grid = ps.make_grid(45.0, 901, params.epsilon)
    sol = ps.solve_stationary_front(params, coupling, grid=grid)
    lam_u = max(z.real for z in evans_small_roots(params, coupling, 3.0))
    prof = fl.eigenfunction_c0(params, lam_u, coupling)
    pert = ps.perturb_with_profile(sol.state, prof, -0.05)
    return ps.simulate(pert, 420.0, output_stride=100, dt=0.01)


def test_criterion_6_front_speed_prediction(cusp_setup, cusp_simulation):
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
    rel_sim = abs(abs(cusp_simulation.speed[-1]) - cparams.epsilon ** 2 * abs(root)) \
        / (cparams.epsilon ** 2 * abs(root))

    ok = rel_dec <= 0.1 and rel_newton <= 0.1 and rel_sim <= 0.1
    assert report(Verdict(6, ok, "front-speed prediction",
                          f"decoupled {rel_dec:.1%}, cusp Newton {rel_newton:.1%}, "
                          f"cusp simulate {rel_sim:.1%} (all <=10%)"))


def test_criterion_7_heteroclinic_speed_transition(cusp_setup, cusp_simulation):
    params, coupling = cusp_setup
    root = fl.gamma0_roots(params, coupling, interval=(-10, 10))[-1][0]
    sim = cusp_simulation
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
    assert report(Verdict(7, ok, "heteroclinic front-speed dynamics",
                          f"final-25% window within 10% of eps^2*root: {bool(within)}, "
                          f"monotone (2% slack): {bool(monotone)}"))


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
    assert report(Verdict(8, ok, "continuation structure",
                          f"{len(points)} points on >=1000-node grid; fold indices "
                          f"{folds}, Hopf candidate indices {hopfs} (fold first)"))


def test_criterion_9_saddle_focus_classification():
    assert report(verify.criterion_9_saddle_focus_classification())


def test_criterion_10_shilnikov_shooting_contract():
    assert report(verify.criterion_10_shilnikov_shooting_contract())


def test_criterion_10_fails_without_a_candidate(monkeypatch, tmp_path, capsys):
    # a sign-change sweep that finds no candidate is a FAIL verdict, not an
    # IndexError; through `frontlab verify`, exit 1, not a traceback
    shoot = verify.shilnikov_shoot
    monkeypatch.setattr(verify, "shilnikov_shoot",
                        lambda *args, **kw: replace(shoot(*args, **kw), candidates=()))
    verdict = verify.criterion_10_shilnikov_shooting_contract()
    assert verdict.ok is False
    assert verdict.detail.startswith("no candidate in the sign-change sweep;")
    assert "nu_bar" not in verdict.detail
    assert dispatch(["--output-dir", str(tmp_path), "verify", "--suite", "full"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert verdict.line in out
    assert out[-1] == "verify[full]: 1 failure(s)"


def test_criterion_11_unfolding_accuracy():
    assert report(verify.criterion_11_unfolding_accuracy())


def test_criterion_12_imprinting_round_trip():
    assert report(verify.criterion_12_imprinting_round_trip())
