"""Existence of uniformly travelling fronts in the singular limit.

The admissible leading-order front speeds are the roots of the scalar
existence function

    Gamma0(c) = F(Vstar(c)) - (sqrt(2)/3) c,

where Vstar_j(c) = c tau_j / sqrt(4 d_j^2 + c^2 tau_j^2) are the slow plateau
values.  This module evaluates Gamma0, locates its roots with multiplicity
estimates, expands it in Taylor series, builds the leading-order front
profile, and traces fold curves in coupling-parameter planes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core_model import (Coupling, PowerSeries, SystemParams, coupling_gradient,
                         eval_coupling, series_sqrt_reciprocal, series_vstar)
from .errors import FrontlabError

SQRT2 = math.sqrt(2.0)

#: |Gamma0| at which a root counts as found: the brentq bracket width, the
#: Newton polish target and the scale of the de-duplication distance.
ROOT_TOL = 1e-12


def _slow_axes(params: SystemParams, c):
    """tau and d shaped (N, 1, ...) to broadcast against c, and c as an array."""
    c = np.asarray(c, dtype=float)
    shape = (params.n_slow,) + (1,) * c.ndim
    return np.reshape(params.tau, shape), np.reshape(params.d, shape), c


def v_star(params: SystemParams, c) -> np.ndarray:
    """Plateau values of the slow components behind/ahead of the interface,
    shape (N,) + shape of c."""
    tau, d, c = _slow_axes(params, c)
    return c * tau / np.sqrt(4.0 * d * d + c * c * tau * tau)


def v_star_derivative(params: SystemParams, c) -> np.ndarray:
    tau, d, c = _slow_axes(params, c)
    g = 4.0 * d * d + c * c * tau * tau
    return 4.0 * d * d * tau / g ** 1.5


def gamma0(params: SystemParams, coupling: Coupling, c):
    """The existence function; total in c, a float or an array."""
    return eval_coupling(coupling, v_star(params, c)) - SQRT2 / 3.0 * c


def gamma0_derivative(params: SystemParams, coupling: Coupling, c):
    grad = coupling_gradient(coupling, v_star(params, c))
    return np.sum(grad * v_star_derivative(params, c), axis=0) - SQRT2 / 3.0


def gamma0_taylor(params: SystemParams, coupling: Coupling, order: int) -> PowerSeries:
    """Taylor series of Gamma0 at c = 0 to the given order."""
    vj = [series_vstar(params, j, order) for j in range(1, params.n_slow + 1)]
    series = eval_coupling(coupling, vj)
    lin = [0.0] * (order + 1)
    lin[1] = -SQRT2 / 3.0
    return series + PowerSeries(tuple(lin))


def gamma0_series_at(params: SystemParams, coupling: Coupling, center: float,
                     order: int) -> PowerSeries:
    """Taylor series of Gamma0 recentred at c = center.

    Used for multiplicity estimation at roots; reduces to gamma0_taylor when
    center = 0 up to rounding.
    """
    vj = []
    for j in range(params.n_slow):
        tau, d = params.tau[j], params.d[j]
        # 4 d^2 + tau^2 (center + s)^2 as a quadratic series in s
        w = PowerSeries.from_coeffs(
            [4.0 * d * d + tau * tau * center * center,
             2.0 * tau * tau * center,
             tau * tau], order=order)
        shifted = PowerSeries.from_coeffs([center, 1.0], order=order)
        vj.append(tau * shifted * series_sqrt_reciprocal(w))
    series = eval_coupling(coupling, vj)
    lin = [0.0] * (order + 1)
    lin[0] = -SQRT2 / 3.0 * center
    lin[1] = -SQRT2 / 3.0
    return series + PowerSeries(tuple(lin))


def _multiplicity_cap(params: SystemParams, coupling: Coupling) -> int:
    # With the diagonal-quadratic class the degeneracy order is at most 2N+1;
    # a univariate tail (N = 1) controls orders up to its polynomial degree.
    cap = 2 * params.n_slow + 1
    if coupling.higher:
        cap = max(cap, coupling.max_degree + 1)
    return cap


def root_multiplicity(params: SystemParams, coupling: Coupling, root: float) -> int:
    """Estimate the multiplicity of a root by recentred Taylor coefficients:
    the order of the first one above 1e-8 of the largest."""
    cap = _multiplicity_cap(params, coupling)
    series = gamma0_series_at(params, coupling, root, cap)
    coeffs = np.abs(series.coeffs)
    scale = max(coeffs.max(), 1e-300)
    for k, a in enumerate(coeffs):
        if a > 1e-8 * scale:
            return max(k, 1)
    return cap


def default_search_radius(coupling: Coupling) -> float:
    """Interval radius guaranteed to contain every root of Gamma0.

    The plateau-dependent part of Gamma0 is bounded by the coupling's L1
    bound B, so every root satisfies |c| <= 3 B / sqrt(2) < 3 B.
    """
    return 3.0 * coupling.bound() + 1.0


def gamma0_roots(params: SystemParams, coupling: Coupling, interval=None):
    """All roots of Gamma0 in the interval, with multiplicity estimates.

    Sign changes on a scan grid of step 0.05 (at least 8 cells) are refined
    by bisection (brentq); local minima of |Gamma0| below ROOT_TOL catch
    even-multiplicity roots.  Output is sorted ascending as (root,
    multiplicity) pairs; FrontlabError where Gamma0 overflows on the scan.
    """
    if interval is None:
        r = default_search_radius(coupling)
        interval = (-r, r)
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise FrontlabError(f"search interval {interval} must be bounded with lo < hi")
    # imported here: scipy.optimize would add ~0.25 s to every `import frontlab`
    from scipy.optimize import brentq

    n = max(int(math.ceil((hi - lo) / 0.05)), 8)
    grid = np.linspace(lo, hi, n + 1)
    with np.errstate(all="ignore"):      # an overflow is raised below instead
        vals = gamma0(params, coupling, grid)
    if not np.isfinite(vals).all():
        raise FrontlabError(f"Gamma0 is not finite at c={grid[~np.isfinite(vals)][0]:.6g} on "
                            f"the scan of [{lo:.6g}, {hi:.6g}]: the parameters overflow")

    roots = []

    def _add(root):
        for r0 in roots:
            if abs(r0 - root) <= max(10 * ROOT_TOL, 1e-9 * max(1.0, abs(root))):
                return
        roots.append(root)

    # grid points where Gamma0 vanishes, and cells with a sign change, in order
    crossing = np.append(vals[:-1] * vals[1:] < 0.0, False)
    for i in np.nonzero((vals == 0.0) | crossing)[0]:
        if vals[i] == 0.0:
            _add(grid[i])
            continue
        root = brentq(lambda c: gamma0(params, coupling, c), grid[i], grid[i + 1],
                      xtol=ROOT_TOL, rtol=4 * np.finfo(float).eps)
        _add(_polish_newton(params, coupling, root))

    # Even-multiplicity roots: interior local minima of |Gamma0| that dip
    # under ROOT_TOL never produce a sign change, so chase them separately.
    absvals = np.abs(vals)
    minima = (absvals[1:-1] <= absvals[:-2]) & (absvals[1:-1] <= absvals[2:])
    for i in 1 + np.nonzero(minima)[0]:
        cand = _polish_newton(params, coupling, grid[i])
        if abs(gamma0(params, coupling, cand)) <= ROOT_TOL and lo <= cand <= hi:
            _add(cand)

    roots.sort()
    pairs = [(r, root_multiplicity(params, coupling, r)) for r in roots]
    return RootReport(pairs, (lo, hi), endpoint_values=(float(vals[0]), float(vals[-1])))


def _polish_newton(params, coupling, x):
    for _ in range(60):
        f = gamma0(params, coupling, x)
        if abs(f) <= ROOT_TOL:
            break
        df = gamma0_derivative(params, coupling, x)
        if df == 0.0:
            break
        step = f / df
        x -= step
        if abs(step) < 1e-17 * max(1.0, abs(x)):
            break
    return x


class RootReport(list):
    """List of (root, multiplicity) pairs with the searched interval attached.

    An empty report still carries the interval endpoints and the endpoint
    values of Gamma0, so "no root found" is always auditable.
    """

    def __init__(self, pairs, interval, endpoint_values=None):
        super().__init__(pairs)
        self.interval = interval
        self.endpoint_values = endpoint_values

    @property
    def locations(self):
        return [r for r, _ in self]


@dataclass(frozen=True)
class FrontProfile:
    """Leading-order travelling front profile in the comoving frame.

    The fast interface occupies |y| <= sqrt(epsilon); outside it the slow
    components relax exponentially to -1 / +1 with rates Lambda_j^-/+.
    """

    c: float
    epsilon: float
    v_star: tuple
    lambda_plus: tuple
    lambda_minus: tuple
    tau: tuple
    d: tuple

    @property
    def interface_halfwidth(self) -> float:
        return math.sqrt(self.epsilon)

    def u(self, y):
        y = np.asarray(y, dtype=float)
        w = self.interface_halfwidth
        inner = np.tanh(y / (SQRT2 * self.epsilon))
        out = np.where(y < -w, -1.0, np.where(y > w, 1.0, inner))
        return float(out) if out.ndim == 0 else out

    def v(self, j, y):
        """Slow component j (1-based) at comoving position y."""
        if not 1 <= j <= len(self.v_star):
            raise FrontlabError(f"component index {j} out of range")
        y = np.asarray(y, dtype=float)
        w = self.interface_halfwidth
        vs = self.v_star[j - 1]
        lp, lm = self.lambda_plus[j - 1], self.lambda_minus[j - 1]
        left = (vs + 1.0) * np.exp(lp * y) - 1.0
        right = (vs - 1.0) * np.exp(lm * y) + 1.0
        out = np.where(y < -w, left, np.where(y > w, right, vs))
        return float(out) if out.ndim == 0 else out

    def __call__(self, y):
        """Stack (U, V_1 .. V_N) sampled at y."""
        rows = [self.u(y)] + [self.v(j, y) for j in range(1, len(self.v_star) + 1)]
        return np.stack([np.atleast_1d(np.asarray(r, dtype=float)) for r in rows])


def front_profile(params: SystemParams, coupling: Coupling, c: float,
                  residual_tol: float = 1e-8) -> FrontProfile:
    """Leading-order profile for speed c; warns if c is not near a root."""
    res = gamma0(params, coupling, c)
    if abs(res) > residual_tol:
        warnings.warn(
            f"Gamma0(c={c}) = {res:.3e} exceeds tolerance {residual_tol:.1e}; "
            "the profile is not a leading-order travelling front",
            stacklevel=2)
    tau = np.asarray(params.tau)
    d = np.asarray(params.d)
    disc = np.sqrt(4.0 * d * d + c * c * tau * tau)
    lam_p = (-c * tau + disc) / (2.0 * d * d)
    lam_m = (-c * tau - disc) / (2.0 * d * d)
    return FrontProfile(c=float(c), epsilon=params.epsilon,
                        v_star=tuple(v_star(params, c)),
                        lambda_plus=tuple(lam_p), lambda_minus=tuple(lam_m),
                        tau=params.tau, d=params.d)


# -- fold curves --------------------------------------------------------------

@dataclass(frozen=True)
class FoldBranch:
    """Polyline of fold points in a coupling-parameter plane, tagged by c."""

    points: tuple      # ((px, py), ...)
    c_values: tuple

    def __len__(self):
        return len(self.points)

    def as_arrays(self):
        return np.asarray(self.points), np.asarray(self.c_values)


def fold_curves(params: SystemParams, coupling_template: Coupling, plane,
                box, n_c: int = 2001, c_range=None):
    """Fold set {Gamma0 = 0, dGamma0/dc = 0} projected to a parameter plane.

    Both admissible plane parameters (gamma, alpha_j, beta_j) enter Gamma0
    affinely, so the corrector along the natural parameter c is a 2x2 linear
    solve per sample; polylines break where the solve degenerates or the
    point leaves the box.  Returns a list of FoldBranch.
    """
    px, py = plane
    base = coupling_template.with_param(px, 0.0).with_param(py, 0.0)
    if px == py:
        raise FrontlabError("plane parameters must differ")
    zero = Coupling(0.0, (0.0,) * params.n_slow, (0.0,) * params.n_slow)
    unit_x, unit_y = zero.with_param(px, 1.0), zero.with_param(py, 1.0)
    xmin, xmax, ymin, ymax = (float(b) for b in box)

    if c_range is None:
        # The fold system inherits the root bound of Gamma0 for couplings
        # with parameters inside the box.
        mags = max(abs(xmin), abs(xmax), abs(ymin), abs(ymax))
        r = 3.0 * (base.bound() + 2 * mags) + 1.0
        c_range = (-r, r)
    cs = np.linspace(c_range[0], c_range[1], n_c)
    # Gamma0 is affine in each plane parameter: its coefficient is
    # F_unit(Vstar(c)), whose c-derivative is grad F_unit . Vstar'(c).
    # Rows of a: (Gamma0, Gamma0') coefficients; columns: (px, py); last axis: c.
    vs, dvs = v_star(params, cs), v_star_derivative(params, cs)
    a = np.array([[eval_coupling(unit, vs) for unit in (unit_x, unit_y)],
                  [np.sum(coupling_gradient(unit, vs) * dvs, axis=0)
                   for unit in (unit_x, unit_y)]])
    rhs = -np.array([gamma0(params, base, cs), gamma0_derivative(params, base, cs)])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = np.maximum(np.abs(a).max(axis=(0, 1)), 1.0)
    solvable = np.abs(det) > 1e-12 * scale * scale
    sol = np.full((n_c, 2), np.nan)
    sol[solvable] = np.linalg.solve(np.moveaxis(a, -1, 0)[solvable],
                                    rhs.T[solvable][:, :, None])[:, :, 0]

    # polylines break where the solve degenerates (nan) or leaves the box
    inside = ((xmin <= sol[:, 0]) & (sol[:, 0] <= xmax)
              & (ymin <= sol[:, 1]) & (sol[:, 1] <= ymax))
    branches, run = [], []
    for k, keep in enumerate(np.append(inside, False)):
        if keep:
            run.append(k)
            continue
        if len(run) >= 2:
            branches.append(FoldBranch(tuple(map(tuple, sol[run].tolist())),
                                       tuple(cs[run].tolist())))
        run = []
    return branches
