"""Manufacture parameter sets with prescribed degeneracies.

The degeneracy conditions on the existence and Evans expansions are
(generalized) Vandermonde systems in the coupling coefficients.  This module
inverts them in closed form: multiplicity-(ell+1) zero roots of the Evans
function, order-m vanishing of the existence function, both simultaneously,
imprinting of arbitrary scalar Taylor data for N = 1, and the lower-
triangular unfolding map from coupling perturbations to the characteristic
polynomial of the small Evans roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import Coupling, SystemParams, series_vstar
from .errors import DesignError, DistinctnessError
from .evans import evans_taylor_c0
from .existence import SQRT2

#: Relative gap at or below which nodes count as coincident.  Vandermonde
#: conditioning degrades well before exact coincidence, so a design fails
#: loudly rather than return garbage.
DISTINCTNESS_RTOL = 1e-10

#: Estimated condition number above which node clustering makes the closed
#: forms untrustworthy.
CONDITION_WARN = 1e8


def _check_distinct(nodes, what):
    """DistinctnessError, with the gap, unless the nodes' least gap exceeds
    DISTINCTNESS_RTOL times their largest magnitude (0 for an all-zero set);
    a design checks the nodes it solves on, before its conditioning warning."""
    nodes = np.sort(np.asarray(nodes, dtype=float))
    if len(nodes) < 2:
        return
    scale = np.max(np.abs(nodes))
    gap = float(np.min(np.diff(nodes))) / scale if scale else 0.0
    if gap <= DISTINCTNESS_RTOL:
        raise DistinctnessError(
            f"{what} are too close for a Vandermonde solve "
            f"(min relative gap {gap:.3e} <= {DISTINCTNESS_RTOL:.0e})", gap=gap)


def vandermonde_solve(nodes, b: float) -> np.ndarray:
    """Solve M x = (b, 0, ..., 0)^t for M_ik = m_k^(i-1) in closed form.

    x_i = b * prod_{k != i} m_k / (m_k - m_i).  Nodes must be pairwise
    distinct (relative gap > 1e-10).
    """
    nodes = np.asarray(nodes, dtype=float)
    _check_distinct(nodes, "Vandermonde nodes")
    n = len(nodes)
    x = np.empty(n)
    for i in range(n):
        prod = 1.0
        for k in range(n):
            if k != i:
                prod *= nodes[k] / (nodes[k] - nodes[i])
        x[i] = b * prod
    return x


def vandermonde_condition_estimate(nodes) -> float:
    nodes = np.asarray(nodes, dtype=float)
    m = np.vander(nodes, increasing=True).T
    return float(np.linalg.cond(m))


def _warn_conditioning(nodes, what):
    import warnings
    cond = vandermonde_condition_estimate(nodes)
    if cond > CONDITION_WARN:
        warnings.warn(f"{what}: Vandermonde condition estimate {cond:.2e} "
                      f"exceeds {CONDITION_WARN:.0e}; results may be inaccurate",
                      stacklevel=3)


def design_evans_degeneracy(params: SystemParams, ell: int | None = None) -> np.ndarray:
    """Linear coefficients giving a zero Evans root of multiplicity ell+1.

    The closed form, for every ell = 1..N, is
        alpha_j = (2 sqrt(2) d_j / (3 tau_j)) prod_{k <= ell, k != j} tau_k/(tau_k - tau_j)
    for j <= ell, and alpha_j = 0 for j > ell.  For ell < N the E0
    coefficient of order ell+1 is then a nonzero multiple of
    tau_1 ... tau_ell, so the multiplicity is exactly ell+1.  Only
    tau_1..tau_ell must be distinct.
    """
    n = params.n_slow
    if ell is None:
        ell = n
    if not 1 <= ell <= n:
        raise DesignError(
            f"Evans zero-root multiplicity {ell + 1} out of range; "
            f"the maximum is N+1 = {n + 1}")
    tau = np.asarray(params.tau)[:ell]
    d = np.asarray(params.d)[:ell]
    # Conditions: sum_j alpha_j tau_j^k / d_j = (2 sqrt(2)/3) delta_{k,1},
    # k = 1..ell; a Vandermonde system in alpha_j tau_j / d_j, whose solve
    # checks the tau_j.
    alpha = np.zeros(n)
    alpha[:ell] = d * vandermonde_solve(tau, 2.0 * SQRT2 / 3.0) / tau
    _warn_conditioning(tau, "design_evans_degeneracy")
    return alpha


def design_gamma_degeneracy(params: SystemParams, m: int):
    """Coupling coefficients making the existence function vanish to order m.

    Returns (alpha, beta, gamma) with Gamma0 = O(c^m):
      * gamma = 0 for m >= 1 (gamma = 1 for m = 0 so the constant survives);
      * alpha defaults to the Evans-side multiplicity-(N+1) values, with the
        first ceil((m-1)/2) odd-order conditions solved for the leading
        entries -- so the maximal case m = 2N+1 lands on the closed form
        alpha_j = (2 sqrt(2)/3)(d_j/tau_j) prod (r_k^2)/(r_k^2 - r_j^2),
        r = tau/d;
      * beta = 0 for m = 2N+1; otherwise normalized to beta_1 = 1 with
        trailing zeros and the even-order conditions solved in between.

    m = 0 and 1 solve nothing; from m = 2 on, the tau_j and the ratios
    tau_j/d_j must be distinct.
    """
    n = params.n_slow
    if not 0 <= m <= 2 * n + 1:
        raise DesignError(
            f"existence degeneracy order {m} out of range; "
            f"the maximum is 2N+1 = {2 * n + 1}")
    if m == 0:
        return (np.zeros(n), np.zeros(n), 1.0)
    if m == 1:
        # Only gamma = 0 is imposed; with no coupling the linear coefficient
        # -sqrt(2)/3 survives, so the order is exactly one.
        return (np.zeros(n), np.zeros(n), 0.0)

    ratio = np.asarray(params.tau) / np.asarray(params.d)
    _check_distinct(ratio, "ratios tau_j/d_j")
    alpha = design_evans_degeneracy(params)
    chi = ratio ** 2
    _warn_conditioning(chi, "design_gamma_degeneracy")

    n_odd = min(m // 2, n)            # odd orders 1, 3, .. among 1..m-1
    n_even = min((m - 1) // 2, n - 1)  # even orders 2, 4, .. among 2..m-1

    if n_odd >= 1:
        # Odd-order conditions: sum_j alpha_j r_j^(2k+1) = (2 sqrt 2/3) delta_k0,
        # k = 0..n_odd-1; solve for alpha_1..alpha_{n_odd} with the Evans-side
        # tail fixed.
        rhs = np.zeros(n_odd)
        rhs[0] = 2.0 * SQRT2 / 3.0
        odd = np.array([[r ** (2 * k + 1) for r in ratio] for k in range(n_odd)])
        head = np.linalg.solve(odd[:, :n_odd], rhs - odd[:, n_odd:] @ alpha[n_odd:])
        alpha = np.concatenate([head, alpha[n_odd:]])

    beta = np.zeros(n)
    if m < 2 * n + 1:
        beta[0] = 1.0
        if n_even >= 1:
            # sum_j beta_j chi_j^k = 0 for k = 1..n_even with beta_1 = 1 and
            # beta_{n_even+2..} = 0.
            mat = np.array([[chi[j] ** k for j in range(1, n_even + 1)]
                            for k in range(1, n_even + 1)])
            rhs = -np.array([chi[0] ** k for k in range(1, n_even + 1)])
            beta[1:n_even + 1] = np.linalg.solve(mat, rhs)

    from .existence import gamma0_taylor
    probe = gamma0_taylor(params, Coupling(0.0, tuple(alpha), tuple(beta)), m)
    if abs(probe.coefficient(m)) < 1e-10:
        import warnings
        warnings.warn(f"order-{m} coefficient is {probe.coefficient(m):.2e}; "
                      "the degeneracy exceeds the requested order", stacklevel=2)
    return (alpha, beta, 0.0)


@dataclass(frozen=True)
class SimultaneousDesign:
    """Parameter set degenerating existence and Evans expansions at once.

    The construction is exact only in the singular limit; downstream users
    should treat it as a seed for small positive epsilon.
    """

    params: SystemParams
    alpha: tuple
    singular_limit_only: bool = True

    def coupling(self) -> Coupling:
        return Coupling(0.0, self.alpha, (0.0,) * len(self.alpha))


def design_simultaneous(d, tau1: float, epsilon: float = 0.01) -> SimultaneousDesign:
    """Pick tau_j = tau_1 d_j^2 / d_1^2 and the matching affine coefficients.

    On this set the existence function is O(c^(2N+1)) (affine coupling) while
    the zero Evans root has multiplicity N+1 simultaneously: alpha is
    `design_evans_degeneracy` at these tau, which there reads
        alpha_j = (2 sqrt(2)/3) (d_1^2/(tau_1 d_j)) prod_{k != j} d_k^2/(d_k^2 - d_j^2).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0) or tau1 <= 0:
        raise DesignError("diffusion lengths and tau_1 must be positive")
    _check_distinct(d, "diffusion lengths")
    params = SystemParams(epsilon=epsilon, tau=tuple(tau1 * d ** 2 / d[0] ** 2), d=tuple(d))
    return SimultaneousDesign(params=params, alpha=tuple(design_evans_degeneracy(params)))


def imprint_scalar_singularity(params: SystemParams, targets) -> Coupling:
    """Univariate coupling whose existence expansion equals the targets.

    For N = 1 the composition c -> F(v(c)) - sqrt(2) c / 3 is triangular in
    the coefficients (coefficient k of F first enters at order k with factor
    (tau/(2d))^k), so the inverse is a forward substitution.  Requires
    tau/(2d) != sqrt(2)/3; on that diagonal the correspondence degenerates
    and tau itself must be varied, which this routine does not do.
    """
    if params.n_slow != 1:
        raise DesignError("imprinting a scalar singularity requires N = 1")
    targets = [float(t) for t in targets]
    order = len(targets) - 1
    if order < 1:
        raise DesignError("need target coefficients at least through order 1")
    v1 = params.tau[0] / (2.0 * params.d[0])
    if abs(v1 - SQRT2 / 3.0) < 0.01:
        raise DesignError(
            "tau/(2d) is within 0.01 of sqrt(2)/3, where the coefficient map "
            "degenerates; vary tau as well to unfold this case")

    v = series_vstar(params, 1, order)
    powers = [None, v]
    for k in range(2, order + 1):
        powers.append(powers[-1] * v)

    f = [0.0] * (order + 1)
    f[0] = targets[0]
    f[1] = (targets[1] + SQRT2 / 3.0) / v1
    for k in range(2, order + 1):
        acc = sum(f[j] * powers[j].coefficient(k) for j in range(1, k))
        f[k] = (targets[k] - acc) / v1 ** k
    gamma, alpha, beta = f[0], f[1], f[2] if order >= 2 else 0.0
    higher = tuple(f[3:])
    return Coupling(gamma, (alpha,), (beta,), higher)


def linear_unfolding_map(params: SystemParams, alpha_perturbation) -> np.ndarray:
    """Characteristic coefficients (a_1, .., a_N) of the small Evans roots
    when the maximal design `design_evans_degeneracy(params)` is perturbed;
    the predicted roots are those of lambda^N - a_N lambda^(N-1) - ... - a_1.
    `_unfold` gives them below the maximum as well."""
    n = params.n_slow
    return _unfold(params, design_evans_degeneracy(params), alpha_perturbation, n)[0]


def _unfold(params: SystemParams, base, alpha_perturbation, ell: int):
    """(a_1..a_ell, e) at base = `design_evans_degeneracy(params, ell)`.

    At this multiplicity-(ell+1) base point, the Evans function divided by
    lambda factors as (lambda^ell - a_ell lambda^(ell-1) - ... - a_1) times a
    unit, whose leading coefficient e is E0's order-(ell+1) Taylor
    coefficient at the base.  To leading order the a_j follow from the base
    Taylor coefficients through a lower-triangular Toeplitz solve frozen at
    the base point.
    """
    n = params.n_slow
    delta = np.asarray(alpha_perturbation, dtype=float)
    if delta.shape != (n,):
        raise DesignError(f"alpha_perturbation must have {n} entries")
    if np.linalg.norm(delta) > 0.1:
        raise DesignError("perturbation too large for the frozen-linearization map "
                          "(norm must be <= 0.1)")

    # e_i = coefficient of lambda^(i+1) in the Evans expansion (the series of
    # E0/lambda); base entries e*_ell..e*_{2 ell - 1} build the frozen
    # triangular factor.
    order = 2 * ell
    coupling = Coupling(0.0, tuple(base + delta), (0.0,) * n)
    e_pert = evans_taylor_c0(params, coupling, order).coeffs[1:]
    base_coupling = Coupling(0.0, tuple(base), (0.0,) * n)
    e_base = evans_taylor_c0(params, base_coupling, order).coeffs[1:]

    if abs(e_base[ell]) < 1e-10:
        raise DesignError(
            f"degenerate base point: leading unit coefficient {e_base[ell]:.2e} "
            "vanishes (multiplicity higher than requested?)")
    b = np.array([[e_base[ell + r - c] if c <= r else 0.0 for c in range(ell)]
                  for r in range(ell)])
    x = np.zeros(ell)
    for i in range(ell):            # forward substitution, row by row
        x[i] = (e_pert[i] - b[i, :i] @ x[:i]) / b[i, i]
    return -x, e_base[ell]


def unfolding_polynomial_roots(abar) -> np.ndarray:
    """Roots of lambda^ell - a_ell lambda^(ell-1) - ... - a_1."""
    abar = np.asarray(abar, dtype=float)
    return np.roots(np.concatenate([[1.0], -abar[::-1]]))
