"""The singular-limit acceptance criteria, and the suites of `frontlab verify`.

Criteria 1-4 and 9-12 of the acceptance contract need no PDE solve.  Each is
one function here that returns its `Verdict`; `Verdict.line` is the one
`ACCEPTANCE <n> [PASS|FAIL] <name>: <detail>` line, printed by
`tests/test_acceptance.py` (which keeps criteria 5-8, the PDE ones) and by
`frontlab verify`.  `full` runs the eight criteria, `paper-params` the two
that read the reference parameter sets (2 and 3).
"""

from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core_model import Coupling, SystemParams
from .designer import (design_evans_degeneracy, design_gamma_degeneracy,
                       imprint_scalar_singularity, linear_unfolding_map,
                       unfolding_polynomial_roots, vandermonde_solve)
from .errors import FrontlabError
from .evans import evans_context, evans_pair, evans_roots, evans_taylor_c0, holomorphic_roots
from .existence import gamma0_taylor
from .jordan_chain import (jordan_coeffs_closed, jordan_coeffs_recurrence, jordan_poly,
                           verify_chain_ode)
from .speed_ode import ScaledNF, _shoot_once, equilibria_and_classification, shilnikov_shoot

SQRT2 = np.sqrt(2.0)


def reference_parameter_sets():
    """The three bundled reference sets as (name, params, coupling, orders).

    orders = (existence order m, evans multiplicity) expected at c = 0.
    """
    tau = (1.0, 2.25, 2.89)
    alpha_t = (578.0 * SQRT2 / 315.0, -289.0 / (90.0 * SQRT2),
               3125.0 / (2142.0 * SQRT2))
    transcritical = (
        "transcritical",
        SystemParams(epsilon=0.03, tau=tau, d=(1.0, 1.5, 1.7)),
        Coupling(0.0, alpha_t, (1.0, 0.0, 0.0)),
        (2, 4),
    )
    alpha_p = (578.0 * SQRT2 / 315.0, -2023.0 / (675.0 * SQRT2),
               3125.0 / (2142.0 * SQRT2))
    pitchfork = (
        "pitchfork",
        SystemParams(epsilon=0.03, tau=tau, d=(1.0, 1.4, 1.7)),
        Coupling(0.0, alpha_p, (1.0, -784.0 / 2025.0, 0.0)),
        (3, 4),
    )
    maximal = (
        "maximal",
        SystemParams(epsilon=0.03, tau=tau, d=(1.0, 1.5, 1.7)),
        Coupling(0.0, alpha_t, (0.0, 0.0, 0.0)),
        (7, 4),
    )
    return [transcritical, pitchfork, maximal]


class Verdict(NamedTuple):
    """One criterion's outcome and the detail text of its line."""
    number: int
    ok: bool
    name: str
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"ACCEPTANCE {self.number} [{status}] {self.name}: {self.detail}"


def random_node_sets(count, seed):
    """Well-spread random node sets in [0.5, 5] with min gap 0.05, n <= 8,
    each with a right-hand side b, 0.1 <= |b| <= 4."""
    # jittered-lattice draws keep the Vandermonde condition number below
    # ~1e8; clustered (still gap-0.05) node sets reach cond ~ 1e10 where
    # neither the closed form nor LU can reach 1e-9 in doubles
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 9))
        if n == 1:
            nodes = np.array([rng.uniform(0.5, 5.0)])
        else:
            slot_w = 4.5 / (n - 1)
            nodes = np.linspace(0.5, 5.0, n) + rng.uniform(-0.35, 0.35, n) * slot_w
            nodes = np.clip(np.sort(nodes), 0.5, 5.0)
            if np.min(np.diff(nodes)) < 0.05:
                continue
        b = float(rng.uniform(-4, 4))
        if abs(b) < 0.1:
            continue
        out.append((nodes, b))
    return out


def hausdorff(a, b):
    """Hausdorff distance of two point sets of the plane; inf if one is empty."""
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if not a or not b:
        return np.inf
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


def deflated_evans(ctx):
    """fdf of E0(lambda)/lambda, the translation root removed, for
    holomorphic_roots: arrays (f, f') at an array of points."""
    def fdf(z):
        e0, de0 = evans_pair(ctx, z)
        return e0 / z, (de0 * z - e0) / z ** 2
    return fdf


def evans_small_roots(params, coupling, radius):
    """Roots of E0/lambda (translation removed) in a square of given radius."""
    ctx = evans_context(params, coupling, 0.0)
    roots, _ = holomorphic_roots(deflated_evans(ctx), (-radius, radius, -radius, radius),
                                 tol=1e-10, cuts=ctx.branch_points)
    return [z for z, m in roots for _ in range(m)]


def criterion_1_vandermonde():
    worst_res, worst_rel = 0.0, 0.0
    for nodes, b in random_node_sets(200, seed=1):
        x = vandermonde_solve(nodes, b)
        m = np.vander(nodes, increasing=True).T
        rhs = np.zeros(len(nodes))
        rhs[0] = b
        lu = np.linalg.solve(m, rhs)
        worst_res = max(worst_res, float(np.max(np.abs(m @ x - rhs))) / abs(b))
        worst_rel = max(worst_rel, float(np.max(np.abs(x - lu)))
                        / max(float(np.max(np.abs(lu))), 1e-30))
    ok = worst_res <= 1e-9 and worst_rel <= 1e-9
    return Verdict(1, ok, "Vandermonde closed form",
                   f"200 node sets: residual {worst_res:.2e} (<=1e-9), "
                   f"LU agreement {worst_rel:.2e} (<=1e-9)")


def criterion_2_fourfold_zero_root():
    _, params, coupling, _ = reference_parameter_sets()[0]
    series = evans_taylor_c0(params, coupling, 4)
    low = max(abs(series.coefficient(k)) for k in (1, 2, 3))
    quart = abs(series.coefficient(4))
    rootset = evans_roots(evans_context(params, coupling, 0.0),
                          (-0.05, 0.05, -0.05, 0.05))
    ok = bool(low <= 1e-12 and quart > 0 and rootset.winding_total == 4)
    return Verdict(2, ok, "fourfold zero Evans root",
                   f"|coeffs 1..3| <= {low:.2e} (<=1e-12), coeff4 = {quart:.3f}, "
                   f"winding in |lambda|<=0.05 box = {rootset.winding_total} (=4)")


def criterion_3_existence_degeneracies():
    details, ok = [], True
    for (name, params, coupling, (m, _)) in reference_parameter_sets():
        alpha, beta, gamma = design_gamma_degeneracy(params, m)
        repro = (np.allclose(alpha, coupling.alpha, atol=1e-12)
                 and np.allclose(beta, coupling.beta, atol=1e-12)
                 and gamma == coupling.gamma)
        series = gamma0_taylor(params, Coupling(gamma, tuple(alpha), tuple(beta)), m)
        low = max(abs(series.coefficient(k)) for k in range(m))
        lead = abs(series.coefficient(m))
        ok = bool(ok and repro and low <= 1e-12 and lead > 1e-6)
        details.append(f"{name}: O(c^{m}) low {low:.1e} lead {lead:.1e}")
    return Verdict(3, ok, "existence degeneracies", "; ".join(details))


def criterion_4_jordan_chain():
    printed = {
        1: [1, 1], 2: [1, 1, "1/3"], 3: [1, 1, "2/5", "1/15"],
        4: [1, 1, "3/7", "2/21", "1/105"],
    }
    forms_ok = all(
        list(jordan_poly(j, 1.0, 1.0).coeffs) == [Fraction(str(c)) for c in coeffs]
        for j, coeffs in printed.items())
    rec_ok = all(jordan_coeffs_closed(j) == jordan_coeffs_recurrence(j)
                 for j in range(13))
    worst = 0.0
    for tau in (0.5, 1.0, 2.89):
        for j in range(1, 7):
            rep = verify_chain_ode(jordan_poly(j, tau, 1.0),
                                   jordan_poly(j - 1, tau, 1.0))
            worst = max(worst, rep.max_residual)
    ok = bool(forms_ok and rec_ok and worst <= 1e-6)
    return Verdict(4, ok, "Jordan-chain closed forms",
                   f"printed v1..v4 exact: {forms_ok}, recurrences exact j<=12: "
                   f"{rec_ok}, ODE residual {worst:.2e} (<=1e-6)")


def criterion_9_saddle_focus_classification():
    triple = np.array([-1.0, -0.5, 0.0])     # (lambda_bar, mu_bar, nu_bar), scaled to norm 1
    nf = ScaledNF.shilnikov(*triple / np.linalg.norm(triple), a11=1.0)
    eqs = equilibria_and_classification(nf)
    kinds = {round(e.c_star, 6): e.kind for e in eqs}
    focus = [e for e in eqs if e.kind == "saddle-focus(1u,2s)"]
    eig_ok = False
    if focus:
        eq = focus[0]
        # the roots of lambda^3 - r3 lambda^2 - r2 lambda - r1, r from nf in closed form
        r1 = nf.nu[0] + 2.0 * nf.a11 * eq.c_star
        r2 = nf.nu[1] + nf.a12 * nf.delta * eq.c_star
        oracle = np.sort_complex(np.roots([1.0, -nf.nu[2], -r2, -r1]))
        eig_ok = bool(np.max(np.abs(np.sort_complex(np.array(eq.eigenvalues))
                                    - oracle)) <= 1e-10)
    guard_ok = False
    try:
        shilnikov_shoot(ScaledNF.shilnikov(1.0, -0.5, 0.0, a11=1.0),
                        np.linspace(-1, 0, 3))
    except FrontlabError:
        guard_ok = True
    ok = bool(focus) and eig_ok and guard_ok
    return Verdict(9, ok, "speed-ODE saddle-focus machinery",
                   f"kinds {kinds}; eigenvalues vs companion oracle <=1e-10: "
                   f"{eig_ok}; lambda*a11>0 sweep rejected: {guard_ok}")


def criterion_10_shilnikov_shooting_contract():
    tol = 1e-6
    # sweep with a sign change: candidates must be tolerance-stable
    nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
    res = shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=tol, t_max=300.0)
    stable_ok = False
    found = "no candidate in the sign-change sweep"
    if res.candidates:
        cand = res.candidates[0]
        refined = _shoot_once(replace(nf, nu=(0.0, -1.0, cand.nu_bar)),
                              t_max=300.0, integrator_tol=1e-11)
        stable_ok = refined.status == "ok" and abs(refined.miss) < 10 * tol
        found = (f"candidate at nu_bar={cand.nu_bar:.6f} (rho_s={cand.rho_s:.3f}) "
                 f"tol-stable: {stable_ok}")

    # sweep without a sign change: the full signed trace comes back
    res2 = shilnikov_shoot(ScaledNF.shilnikov(-1.0, -0.5, -1.6, a11=1.0),
                           np.linspace(-2.0, -1.25, 7), tol=tol, t_max=300.0)
    trace_ok = (res2.candidates == () and len(res2.trace) == 7
                and all(p.status == "ok" for p in res2.trace)
                and not res2.has_sign_change)
    ok = bool(stable_ok and trace_ok)
    return Verdict(10, ok, "Shil'nikov shooting contract",
                   f"{found}; no-change sweep returns full trace: {trace_ok}")


def criterion_11_unfolding_accuracy():
    params = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
    base = design_evans_degeneracy(params)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        delta = 10 ** rng.uniform(-3, -2) * direction
        abar = linear_unfolding_map(params, delta)
        pred = unfolding_polynomial_roots(abar)
        coupling = Coupling(0.0, tuple(base + delta), (0.0,) * 3)
        r = 3.0 * max(float(np.max(np.abs(pred))), 1e-4)
        found = evans_small_roots(params, coupling, r)
        ratio = hausdorff(pred, found) / float(np.dot(delta, delta))
        worst = max(worst, ratio)
    ok = bool(worst <= 10.0)
    return Verdict(11, ok, "unfolding-map accuracy",
                   f"50 perturbations |da|<=1e-2: worst Hausdorff/|da|^2 = "
                   f"{worst:.2f} (<=10)")


def criterion_12_imprinting_round_trip():
    # tau/(2d) = 0.8, well clear of the sqrt2/3 ~ 0.4714 degeneracy
    params = SystemParams(epsilon=0.05, tau=(1.6,), d=(1.0,))
    clear = abs(params.tau[0] / (2 * params.d[0]) - SQRT2 / 3) > 0.1
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 7))
        targets = rng.uniform(-1, 1, order + 1)
        coupling = imprint_scalar_singularity(params, targets)
        series = gamma0_taylor(params, coupling, order)
        worst = max(worst, float(np.max(np.abs(np.asarray(series.coeffs)
                                               - targets))))
    ok = bool(clear and worst <= 1e-10)
    return Verdict(12, ok, "imprinting round-trip",
                   f"100 random targets (M<=6): worst coefficient error "
                   f"{worst:.2e} (<=1e-10)")


SUITES = {"paper-params": (criterion_2_fourfold_zero_root, criterion_3_existence_degeneracies),
          "full": (criterion_1_vandermonde, criterion_2_fourfold_zero_root,
                   criterion_3_existence_degeneracies, criterion_4_jordan_chain,
                   criterion_9_saddle_focus_classification,
                   criterion_10_shilnikov_shooting_contract,
                   criterion_11_unfolding_accuracy, criterion_12_imprinting_round_trip)}


def run_suite(suite: str):
    """Print the line of each criterion of `suite`, in number order, then a
    summary; return the numbers of the failed criteria."""
    failures = []
    for criterion in SUITES[suite]:
        verdict = criterion()
        print(verdict.line)
        if not verdict.ok:
            failures.append(verdict.number)
    total = "all checks passed" if not failures else f"{len(failures)} failure(s)"
    print(f"verify[{suite}]: {total}")
    return failures
