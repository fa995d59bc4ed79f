"""Built-in verification suites behind `frontlab verify`.

`paper-params` exercises the three reference parameter sets (transcritical,
pitchfork, and maximally degenerate) against their predicted expansion
orders and the fourfold zero Evans root.  `full` adds fast module property
checks.  Each check prints one pass/fail line; the suite returns the list of
failures.
"""

from __future__ import annotations

import numpy as np

from .core_model import Coupling, SystemParams

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


def _check(name, ok, detail, failures):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    if not ok:
        failures.append(name)


def _paper_params_checks(failures):
    from .designer import design_gamma_degeneracy, design_simultaneous
    from .evans import evans_context, evans_roots, evans_taylor_c0
    from .existence import gamma0_taylor

    for name, params, coupling, (m, mult) in reference_parameter_sets():
        series = gamma0_taylor(params, coupling, m)
        low = max(abs(series.coefficient(k)) for k in range(m))
        _check(f"{name}: existence order {m}",
               low <= 1e-12 and abs(series.coefficient(m)) > 1e-6,
               f"max low coeff {low:.2e}, order-{m} coeff "
               f"{series.coefficient(m):.3e}", failures)

        ev = evans_taylor_c0(params, coupling, mult)
        low_ev = max(abs(ev.coefficient(k)) for k in range(1, mult))
        _check(f"{name}: evans multiplicity {mult}",
               low_ev <= 1e-12 and abs(ev.coefficient(mult)) > 1e-6,
               f"max low coeff {low_ev:.2e}", failures)

        alpha, beta, gamma = design_gamma_degeneracy(params, m)
        err = max(np.max(np.abs(alpha - np.asarray(coupling.alpha))),
                  np.max(np.abs(beta - np.asarray(coupling.beta))),
                  abs(gamma - coupling.gamma))
        _check(f"{name}: designer reproduces the printed set",
               err <= 1e-10, f"max coefficient error {err:.2e}", failures)

    name, params, coupling, _ = reference_parameter_sets()[0]
    ctx = evans_context(params, coupling, c=0.0)
    rootset = evans_roots(ctx, (-0.05, 0.05, -0.05, 0.05))
    _check("transcritical: fourfold zero root (winding)",
           rootset.winding_total == 4,
           f"winding {rootset.winding_total}", failures)

    design = design_simultaneous((1.0, 1.5, 1.7), 1.0)
    tau_err = np.max(np.abs(np.asarray(design.params.tau)
                            - np.asarray((1.0, 2.25, 2.89))))
    _check("simultaneous design matches the reference tau",
           tau_err <= 1e-12 and design.singular_limit_only,
           f"tau error {tau_err:.2e}", failures)


def _full_checks(failures):
    from .designer import (design_evans_degeneracy, imprint_scalar_singularity,
                           linear_unfolding_map, unfolding_polynomial_roots,
                           vandermonde_solve)
    from .evans import evans_context, evans_roots
    from .existence import gamma0_taylor
    from .jordan_chain import jordan_coeffs_closed, jordan_coeffs_recurrence

    # jittered-lattice node draws keep the condition number below ~1e8;
    # clustered (still gap-0.05) sets would exceed what doubles can deliver
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(1, 9))
        if n == 1:
            nodes = np.array([rng.uniform(0.5, 5.0)])
        else:
            slot_w = 4.5 / (n - 1)
            nodes = np.linspace(0.5, 5.0, n) + rng.uniform(-0.35, 0.35, n) * slot_w
            nodes = np.clip(np.sort(nodes), 0.5, 5.0)
            if np.min(np.diff(nodes)) < 0.05:
                continue
        b = float(rng.uniform(-3, 3))
        if abs(b) < 0.1:
            continue
        x = vandermonde_solve(nodes, b)
        m = np.vander(nodes, increasing=True).T
        rhs = np.zeros(n)
        rhs[0] = b
        worst = max(worst, float(np.max(np.abs(m @ x - rhs))) / abs(b))
        count += 1
    _check("vandermonde closed form", worst <= 1e-9,
           f"worst residual {worst:.2e}", failures)

    ok = all(jordan_coeffs_closed(j) == jordan_coeffs_recurrence(j)
             for j in range(13))
    _check("jordan recurrences (exact, j <= 12)", ok, "rational arithmetic",
           failures)

    params = SystemParams(epsilon=0.05, tau=(1.0,), d=(1.0,))
    worst = 0.0
    for _ in range(20):
        targets = rng.uniform(-1, 1, 5)
        coupling = imprint_scalar_singularity(params, targets)
        series = gamma0_taylor(params, coupling, 4)
        worst = max(worst, float(np.max(np.abs(np.asarray(series.coeffs)
                                               - targets))))
    _check("imprint round-trip", worst <= 1e-10, f"worst error {worst:.2e}",
           failures)

    params3 = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89),
                           d=(1.0, 1.5, 1.7))
    base = design_evans_degeneracy(params3)
    delta = 1e-3 * np.array([1.0, -0.5, 0.25])
    abar = linear_unfolding_map(params3, delta)
    pred = unfolding_polynomial_roots(abar)
    ctx = evans_context(params3, Coupling(0.0, tuple(base + delta),
                                          (0.0, 0.0, 0.0)))
    r = 4.0 * float(np.max(np.abs(pred)))
    found = evans_roots(ctx, (-r, r, -r, r))
    small = [z for z, mult in found.roots for _ in range(mult)
             if abs(z) > 1e-8]
    dist = max(min(abs(p - z) for z in small) for p in pred) if small else np.inf
    _check("linear unfolding vs located roots", dist <= 10 * np.dot(delta, delta),
           f"hausdorff-ish distance {dist:.2e}", failures)


def run_suite(suite: str):
    failures = []
    _paper_params_checks(failures)
    if suite == "full":
        _full_checks(failures)
    total = "all checks passed" if not failures else f"{len(failures)} failure(s)"
    print(f"verify[{suite}]: {total}")
    return failures
