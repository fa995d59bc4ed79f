"""Correctness checks: frontlab outputs against the reference computations.

Each check is a pure function of outputs and inputs returning a `Check`, so
the benchmark's own tests can feed it corrupted outputs and see it trip.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import reference as ref


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def gamma0_roots_zero(name, model, roots, atol=1e-9) -> Check:
    """Every reported root zeroes the closed-form Gamma0."""
    worst = max((abs(ref.gamma0(model, r)) for r in roots), default=0.0)
    return Check(name, bool(roots) and worst <= atol,
                 f"{len(roots)} roots, max |Gamma0| {worst:.1e} (<= {atol:.0e})")


def planted_recall(planted, pairs, double=None) -> tuple:
    """(found, missing): planted speeds returned once with their multiplicity.

    Each speed is simple, matched within 1e-7 (relative), except `double`: a
    double root is located only to about the square root of the residual
    Gamma0 is polished to, so it is matched within 1e-6.
    """
    found, missing = 0, []
    for c in planted:
        want, tol = ([2], 1e-6) if c == double else ([1], 1e-7)
        hits = [m for r, m in pairs if abs(r - c) <= tol * max(1.0, abs(c))]
        if hits == want:
            found += 1
        else:
            missing.append(c)
    return found, missing


def root_multiplicity(name, pairs, root, mult) -> Check:
    hits = [m for r, m in pairs if abs(r - root) <= 1e-9]
    return Check(name, hits == [mult], f"multiplicity at {root}: {hits} (want [{mult}])")


def evans_roots_zero(name, model, c, roots, rtol=1e-9) -> Check:
    """Every located root (with multiplicity) zeroes the closed-form E0."""
    worst = 0.0
    for z, _m in roots:
        worst = max(worst, abs(ref.evans(model, c, z)) / ref.evans_scale(model, c, z))
    return Check(name, bool(roots) and worst <= rtol,
                 f"{len(roots)} roots, max relative |E0| {worst:.1e} (<= {rtol:.0e})")


def winding_resolved(name, rootset) -> Check:
    located = sum(m for _z, m in rootset.roots)
    return Check(name, located == rootset.winding_total,
                 f"located multiplicity {located}, winding {rootset.winding_total}")


def series_equal(name, got, want, atol) -> Check:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    return Check(name, err <= atol, f"max coefficient error {err:.1e} (<= {atol:.0e})")


def series_has_order(name, coeffs, order, atol=1e-12, lead=1e-6) -> Check:
    low = max((abs(x) for x in coeffs[:order]), default=0.0)
    top = abs(coeffs[order]) if len(coeffs) > order else 0.0
    return Check(name, low <= atol and top > lead,
                 f"order {order}: low coefficients {low:.1e}, leading {top:.2e}")


def unfolding_accuracy(name, predicted, located, delta) -> Check:
    """Hausdorff distance of located and predicted small roots <= 10 |delta|^2."""
    bound = 10.0 * float(np.dot(delta, delta))
    dist = ref.hausdorff(predicted, located) if len(located) == len(predicted) else math.inf
    return Check(name, dist <= bound,
                 f"{len(located)} small roots, Hausdorff {dist:.1e} (<= {bound:.1e})")


def vandermonde_residual(name, nodes, b, x) -> Check:
    """Criterion 1: residual and agreement with LU both within 1e-9."""
    nodes = np.asarray(nodes, dtype=float)
    m = np.vander(nodes, increasing=True).T
    rhs = np.zeros(len(nodes))
    rhs[0] = b
    lu = np.linalg.solve(m, rhs)
    res = float(np.max(np.abs(m @ x - rhs))) / abs(b)
    agree = float(np.max(np.abs(x - lu))) / max(float(np.max(np.abs(lu))), 1e-30)
    return Check(name, res <= 1e-9 and agree <= 1e-9,
                 f"residual {res:.1e}, LU agreement {agree:.1e} (<= 1e-9)")


def jordan_exact(name, j, coeffs) -> Check:
    closed = ref.jordan_closed(j)
    ok = list(coeffs) == closed == ref.jordan_recurrence(j)
    return Check(name, ok, f"chain index {j}: closed form == recurrence == returned: {ok}")


def chain_plateau(name, profile, k, tau, d) -> Check:
    worst = 0.0
    for j, (t, dj) in enumerate(zip(tau, d), start=1):
        want = float(ref.jordan_sign_prefactor(k)) * t ** k / dj
        worst = max(worst, abs(profile.plateau(j) - want))
    return Check(name, worst <= 1e-12, f"k={k}: plateau error {worst:.1e}")


def equilibria_oracle(name, nu0, nu, a11, a12, delta, equilibria) -> Check:
    """Equilibria from the quadratic and eigenvalues from a companion matrix."""
    want = ref.scalar_equilibria(nu0, nu[0], a11)
    got = [e.c_star for e in equilibria]
    if len(got) != len(want) or any(abs(g - w) > 1e-10 for g, w in zip(got, want)):
        return Check(name, False, f"equilibria {got} vs {want}")
    worst = 0.0
    for eq in equilibria:
        row = list(nu)
        row[0] += 2.0 * a11 * eq.c_star
        if len(row) >= 2:
            row[1] += a12 * delta * eq.c_star
        oracle = np.sort_complex(ref.companion_eigenvalues(row))
        got_eigs = np.sort_complex(np.asarray(eq.eigenvalues, dtype=complex))
        worst = max(worst, float(np.max(np.abs(got_eigs - oracle))))
    return Check(name, worst <= 1e-10,
                 f"{len(got)} equilibria, eigenvalues vs companion {worst:.1e} (<= 1e-10)")


def shooting_contract(name, result, tol, expect_candidate) -> Check:
    statuses = [p.status for p in result.trace]
    if not expect_candidate:
        ok = (not result.candidates and all(s == "ok" for s in statuses)
              and not result.has_sign_change)
        return Check(name, ok, f"no candidate, statuses {set(statuses)}")
    ok = bool(result.candidates) and all(abs(c.miss) < tol for c in result.candidates)
    trace = [p for p in result.trace if p.status == "ok"]
    for cand in result.candidates:
        brackets = [(a.nu_bar, b.nu_bar) for a, b in zip(trace, trace[1:])
                    if a.miss * b.miss < 0 and min(a.nu_bar, b.nu_bar) <= cand.nu_bar
                    <= max(a.nu_bar, b.nu_bar)]
        ok = ok and bool(brackets)
    return Check(name, ok, f"{len(result.candidates)} candidate(s) inside sign changes, "
                           f"|miss| < {tol:.0e}")


def trajectory_solves(name, field, trajectory, samples=16, rtol=1e-5) -> Check:
    """Dense output's centred derivative matches the companion-form field."""
    t = trajectory.t
    worst = 0.0
    h = 1e-4
    for s in np.linspace(t[0] + 1.0, t[-1] - 1.0, samples):
        deriv = (trajectory(s + h) - trajectory(s - h)) / (2.0 * h)
        want = field(trajectory(s))
        worst = max(worst, float(np.max(np.abs(deriv - want)))
                    / max(1.0, float(np.max(np.abs(want)))))
    ok = not trajectory.blew_up and worst <= rtol
    return Check(name, ok, f"derivative vs field {worst:.1e} (<= {rtol:.0e}), "
                           f"blew up: {trajectory.blew_up}")


def lyapunov_near_zero(name, lam, trace) -> Check:
    """On a periodic orbit the top exponent is 0; bound as the tier-1 test does."""
    bound = 1e-2 * (trace - abs(lam)) / 2.0
    return Check(name, abs(lam) <= bound, f"exponent {lam:.2e} (|.| <= {bound:.2e})")


def relative(name, got, want, rtol) -> Check:
    rel = abs(got - want) / abs(want)
    return Check(name, rel <= rtol, f"{got:.6g} vs {want:.6g}: {rel:.2%} (<= {rtol:.0%})")


def speed_transition(name, speeds, target, rtol=0.1, slack=0.02) -> Check:
    """Final quarter within rtol of the plateau, monotone up to slack."""
    speeds = np.abs(np.asarray(speeds, dtype=float))
    tail = speeds[int(0.75 * len(speeds)):]
    within = bool(np.all(np.abs(tail - target) <= rtol * target))
    monotone = bool(np.all(np.diff(speeds) >= -slack * target))
    return Check(name, within and monotone,
                 f"final quarter within {rtol:.0%} of {target:.5f}: {within}; "
                 f"monotone ({slack:.0%} slack): {monotone}")


def steady_front(name, model, epsilon, h, u, v, c, stationary=False, atol=1e-8) -> Check:
    """Own stencil residual vanishes and the front is pinned at u(0) = 0.

    A stationary solve trades the centre U equation for the pin, so that row
    is left out of the residual.
    """
    res = ref.steady_residual(model, epsilon, h, u, v, c)
    centre = len(u) // 2
    if stationary:
        res = np.delete(res, centre)
    worst = float(np.max(np.abs(res)))
    pin = abs(float(u[centre]))
    return Check(name, worst <= atol and pin <= 1e-12,
                 f"stencil residual {worst:.1e} (<= {atol:.0e}), |u(0)| {pin:.1e}")


def branch_turns_once(name, params, fold_tags, fold_ref, rtol=0.05) -> Check:
    """The parameter turns exactly once, within rtol of the singular-limit fold."""
    steps = np.diff(np.asarray(params, dtype=float))
    turns = [i + 1 for i in range(len(steps) - 1) if steps[i] * steps[i + 1] < 0]
    if len(turns) != 1 or fold_tags != turns:
        return Check(name, False, f"turns at {turns}, fold tags {fold_tags}")
    p_fold = params[turns[0]]
    rel = abs(p_fold - fold_ref) / abs(fold_ref)
    return Check(name, rel <= rtol,
                 f"one turn at point {turns[0]}, alpha1 {p_fold:.4f} vs singular "
                 f"fold {fold_ref:.4f}: {rel:.1%} (<= {rtol:.0%})")


def eigenvalues_of(name, jac, eigenvalues, rtol=1e-6, iters=3) -> Check:
    """Each eigenvalue is one of the matrix's: inverse iteration returns it.

    Shifted by a relative 1e-7 off the reported value, inverse iteration
    converges to the eigenvalue nearest the shift; its Rayleigh quotient must
    reproduce the reported value.
    """
    n = jac.shape[0]
    jac = sp.csc_matrix(jac, dtype=complex)
    eye = sp.identity(n, dtype=complex, format="csc")
    rng = np.random.default_rng(0)
    worst = 0.0
    for lam in eigenvalues:
        scale = max(abs(lam), 1e-6)
        shift = lam + 1e-7 * scale * (1 + 1j)
        lu = splu((jac - shift * eye).tocsc())
        x = rng.standard_normal(n) + 0j
        for _ in range(iters):
            x = lu.solve(x)
            x /= np.linalg.norm(x)
        mu = np.vdot(x, jac @ x)
        worst = max(worst, abs(mu - lam) / scale)
    return Check(name, worst <= rtol,
                 f"{len(eigenvalues)} eigenvalues, Rayleigh quotient error {worst:.1e} "
                 f"(<= {rtol:.0e})")
