"""Existence of uniformly travelling fronts in the singular limit.

The admissible leading-order front speeds are the roots of the scalar
existence function

    Gamma0(c) = F(Vstar(c)) - (sqrt(2)/3) c,

where Vstar_j(c) = c tau_j / sqrt(4 d_j^2 + c^2 tau_j^2) are the slow plateau
values.  This module evaluates Gamma0, expands it in Taylor series at any
speed, locates its roots with multiplicity estimates, builds the
leading-order front profile, and traces fold curves in coupling-parameter
planes.  The roots come from piecewise Chebyshev interpolants of Gamma0,
analytic in the strip |Im c| < min_j 2 d_j / tau_j: the eigenvalues of
their colleague matrices, grouped and placed by Newton on the recentred
Taylor series (Boyd, SIAM Review 55, 2013; Trefethen, Approximation Theory
and Approximation Practice, chs. 8 and 18).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core_model import (Coupling, PowerSeries, SystemParams, _plateau_series,
                         coupling_gradient, eval_coupling)
from .errors import ConvergenceError, FrontlabError

SQRT2 = math.sqrt(2.0)


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
    return gamma0_series_at(params, coupling, 0.0, order)


def gamma0_series_at(params: SystemParams, coupling: Coupling, center: float,
                     order: int) -> PowerSeries:
    """Taylor series of Gamma0 recentred at c = center: F composed with the
    plateau series (`core_model._plateau_series`), less sqrt(2)/3 (center + s).

    Used to place roots and estimate their multiplicity; FrontlabError
    naming the slow component whose plateau series overflows.
    """
    vj = [_plateau_series(params, j, center, order) for j in range(1, params.n_slow + 1)]
    # + 0.0 turns -0.0 at center = 0 into 0.0, so Gamma0(0) = 0 never reads -0
    return eval_coupling(coupling, vj) + PowerSeries.from_coeffs(
        [-SQRT2 / 3.0 * center + 0.0, -SQRT2 / 3.0], order)


def _multiplicity_cap(params: SystemParams, coupling: Coupling) -> int:
    # With the diagonal-quadratic class the degeneracy order is at most 2N+1;
    # a univariate tail (N = 1) controls orders up to its polynomial degree.
    cap = 2 * params.n_slow + 1
    if coupling.higher:
        cap = max(cap, coupling.max_degree + 1)
    return cap


#: A Taylor coefficient a_k at c is negligible when |a_k| L^k is below this
#: fraction of the largest such term, L = min(1, _reach(params, c)): steep
#: Gamma0 (tau_j/d_j >> 1) is measured on its own length scale.
MULTIPLICITY_RTOL = 1e-8


def _reach(params: SystemParams, c: float) -> float:
    """Radius of convergence of the Taylor series of Gamma0 at c: the
    distance to the nearest branch point +-2i d_j/tau_j."""
    return min(math.hypot(c, 2.0 * d / tau) for tau, d in zip(params.tau, params.d))


def _order(params: SystemParams, c: float, series: PowerSeries) -> int:
    """Index of the first non-negligible Taylor coefficient of the series at
    c (the truncation order if every coefficient is zero)."""
    terms = np.abs(series.coeffs) * min(1.0, _reach(params, c)) ** np.arange(series.order + 1)
    above = terms > MULTIPLICITY_RTOL * terms.max()
    return int(np.argmax(above)) if above.any() else series.order


def root_multiplicity(params: SystemParams, coupling: Coupling, root: float) -> int:
    """Estimate the multiplicity of a root: the index of the first
    non-negligible Taylor coefficient there."""
    cap = _multiplicity_cap(params, coupling)
    return max(_order(params, root, gamma0_series_at(params, coupling, root, cap)), 1)


def default_search_radius(coupling: Coupling) -> float:
    """Interval radius guaranteed to contain every root of Gamma0.

    The plateau-dependent part of Gamma0 is bounded by the coupling's L1
    bound B, so every root satisfies |c| <= 3 B / sqrt(2) < 3 B.
    """
    return 3.0 * coupling.bound() + 1.0


#: Chebyshev proxy of degree PROXY_DEGREE per piece.  A piece stands when
#: its last PROXY_TAIL coefficients are below PROXY_TOL times the larger of
#: max |Gamma0| on the first level and the coupling's L1 bound (the terms
#: whose rounding is the noise floor of Gamma0); otherwise it is halved, at
#: most PROXY_LEVELS times.  Only pieces next to the branch points
#: +-2i d_j/tau_j are halved again, so few are open on any level.
PROXY_DEGREE, PROXY_TAIL, PROXY_TOL, PROXY_LEVELS = 24, 3, 1e-14, 40
_CHEB_POINTS = np.cos(np.pi * np.arange(PROXY_DEGREE + 1) / PROXY_DEGREE)
#: Colleague eigenvalues count within EDGE_SLACK of their piece (in its
#: [-1, 1] coordinate): a root on a shared endpoint may come back just
#: outside both pieces.  Those with real parts within CLUSTER_GAP of each
#: other (and within it of the real axis) are tried as one multiple root:
#: an m-fold root's spread over about (proxy accuracy / |a_m|)^(1/m), 2e-2
#: for the sevenfold reference root, and it absorbs those within ABSORB
#: times that.  Newton on the (m-1)-th derivative converges quadratically,
#: so it stops after a step below PLACE_TOL times the reach; it gives up
#: after PLACE_STEPS steps or CLUSTER_GAP away.
EDGE_SLACK, CLUSTER_GAP, ABSORB = 1e-6, 0.05, 4.0
PLACE_TOL, PLACE_STEPS = 1e-7, 12


def _proxy(params, coupling, lo, hi):
    """Pieces tiling [lo, hi] on which the Chebyshev interpolant of Gamma0
    has converged: arrays a, b, coefficients and Gamma0 at (a, b) over the
    pieces, then Gamma0 at (lo, hi) and the proxy's absolute accuracy."""
    edges = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    done, scale, level = [], None, 0
    while len(a):
        if level == PROXY_LEVELS:
            raise ConvergenceError(
                f"Gamma0 has no Chebyshev proxy on [{lo:.6g}, {hi:.6g}]: {len(a)} pieces open "
                f"after {level} halvings", diagnostics={"levels": level, "open": len(a)})
        x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _CHEB_POINTS
        x[:, 0], x[:, -1] = b, a          # endpoints exact: they are shared
        with np.errstate(all="ignore"):   # an overflow is raised below instead
            vals = gamma0(params, coupling, x)
        if not np.isfinite(vals).all():
            raise FrontlabError(f"Gamma0 is not finite at c={x[~np.isfinite(vals)][0]:.6g} "
                                f"on [{lo:.6g}, {hi:.6g}]: the parameters overflow")
        if scale is None:
            scale, ends = max(float(np.abs(vals).max()), coupling.bound()), vals[[0, -1], [-1, 0]]
        # values at the Chebyshev extrema -> coefficients (a DCT-I by FFT)
        coeffs = np.fft.rfft(np.concatenate([vals, vals[:, -2:0:-1]], axis=1),
                             axis=1).real / PROXY_DEGREE
        coeffs[:, [0, -1]] *= 0.5
        ok = np.abs(coeffs[:, -PROXY_TAIL:]).max(axis=1) <= PROXY_TOL * scale
        done.append((a[ok], b[ok], coeffs[ok], vals[ok][:, [-1, 0]]))
        mid = 0.5 * (a[~ok] + b[~ok])
        a, b, level = np.append(a[~ok], mid), np.append(mid, b[~ok]), level + 1
    return (*(np.concatenate(part) for part in zip(*done)), ends, PROXY_TOL * scale)


def _colleague_roots(a, b, coeffs, noise):
    """Colleague eigenvalues within CLUSTER_GAP of the real axis on each
    piece whose proxy may vanish, its coefficients below `noise` chopped."""
    out = []
    for lo_k, hi_k, c in zip(a, b, coeffs):
        keep = np.nonzero(np.abs(c) > noise)[0]
        # |c_0| > sum |c_k| (k >= 1): the proxy cannot vanish on the piece
        if keep.size == 0 or keep[-1] == 0 or abs(c[0]) - np.abs(c[1:]).sum() > noise:
            continue
        t = np.polynomial.chebyshev.chebroots(c[:keep[-1] + 1]).astype(complex)
        z = 0.5 * (lo_k + hi_k) + 0.5 * (hi_k - lo_k) * t
        out += z[(np.abs(t.real) <= 1.0 + EDGE_SLACK) & (np.abs(z.imag) <= CLUSTER_GAP)].tolist()
    return out


def _groups(cands):
    """Candidates sorted, split where consecutive real parts are more than
    CLUSTER_GAP apart."""
    cands = np.sort_complex(np.asarray(cands, dtype=complex))
    return np.split(cands, np.nonzero(np.diff(cands.real) > CLUSTER_GAP)[0] + 1)


def _place(params, coupling, x, m, cap):
    """Newton on the (m-1)-th derivative of Gamma0 from x, m rising to the
    number of negligible leading Taylor coefficients where that is larger:
    (root, m, Taylor series there), or None if it does not converge within
    CLUSTER_GAP or converges where fewer than m-1 are negligible."""
    start = x
    for _ in range(PLACE_STEPS):
        series = gamma0_series_at(params, coupling, x, cap)
        coeffs, order = series.coeffs, _order(params, x, series)
        m = max(m, order)
        step = -coeffs[m - 1] / (m * coeffs[m]) if coeffs[m] else math.inf
        x += step
        if abs(x - start) > CLUSTER_GAP:
            return None
        if abs(step) <= PLACE_TOL * _reach(params, x):
            return (x, m, series) if order >= m - 1 else None
    return None


def gamma0_roots(params: SystemParams, coupling: Coupling, interval=None):
    """All roots of Gamma0 in the interval as ascending (root, multiplicity)
    pairs; FrontlabError where Gamma0 overflows or has no proxy.

    A piece endpoint of the Chebyshev proxy where Gamma0 is exactly zero is
    a root, and the colleague eigenvalues of the pieces are candidates.  A
    group of n nearby candidates is one root of multiplicity m <= n when
    Newton on the (m-1)-th derivative from its centre converges to a point
    with m negligible leading Taylor coefficients; that root absorbs the
    candidates around it.  Otherwise the group splits at its widest gap,
    down to single real candidates, each a simple root.
    """
    if interval is None:
        r = default_search_radius(coupling)
        interval = (-r, r)
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise FrontlabError(f"search interval {interval} must be bounded with lo < hi")
    a, b, coeffs, piece_ends, ends, noise = _proxy(params, coupling, lo, hi)
    cap = _multiplicity_cap(params, coupling)
    roots = []           # (root, multiplicity, radius of the candidates it absorbs)

    def record(x, m, series):
        roots.append((float(x), m, ABSORB * (noise / abs(series.coeffs[m])) ** (1.0 / m)))

    def free(zs):
        return np.array([all(abs(z - r) > rad for r, _m, rad in roots) for z in zs], dtype=bool)

    for x in np.unique(np.append(a[piece_ends[:, 0] == 0.0], b[piece_ends[:, 1] == 0.0])):
        series = gamma0_series_at(params, coupling, x, cap)
        record(x, max(_order(params, x, series), 1), series)
    pending = _groups(_colleague_roots(a, b, coeffs, noise))
    while pending:
        group = pending.pop()
        group = group[free(group)]
        n = len(group)
        if n == 0 or (n == 1 and group[0].imag != 0.0):
            continue                # absorbed, or no real root of its own
        for m in (range(min(n, cap), 1, -1) if n > 1 else [1]):
            placed = _place(params, coupling, float(group.real.mean()), m, cap)
            if not placed or not lo <= placed[0] <= hi or not free([placed[0]])[0]:
                continue
            record(*placed)
            if not free(group).all():
                pending += _groups(group[free(group)])
                break
            roots.pop()         # it absorbs none of the group's candidates
        else:
            if n > 1:           # not one root: split at the widest gap
                cut = 1 + int(np.argmax(np.abs(np.diff(group))))
                pending += [group[:cut], group[cut:]]
    roots.sort()
    return RootReport([(r, m) for r, m, _rad in roots], (lo, hi),
                      endpoint_values=(float(ends[0]), float(ends[1])))


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
                        lambda_plus=tuple(lam_p), lambda_minus=tuple(lam_m))


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
    with np.errstate(all="ignore"):     # an overflow is raised below instead
        vs, dvs = v_star(params, cs), v_star_derivative(params, cs)
        a = np.array([[eval_coupling(unit, vs) for unit in (unit_x, unit_y)],
                      [np.sum(coupling_gradient(unit, vs) * dvs, axis=0)
                       for unit in (unit_x, unit_y)]])
        rhs = -np.array([gamma0(params, base, cs), gamma0_derivative(params, base, cs)])
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise FrontlabError(f"the fold system is not finite on c in [{cs[0]:.6g}, "
                            f"{cs[-1]:.6g}]: the parameters overflow")
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
