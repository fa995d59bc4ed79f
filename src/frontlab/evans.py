"""Evans function for travelling fronts: evaluation, expansion, root counting.

The critical point spectrum of the linearization at a front with speed c is
(after an epsilon^2 rescaling) the root set of

    E0(lambda) = lambda + 3 sqrt(2) sum_j dF_j(Vstar) *
                 (1/sqrt(c^2 tau_j^2 + 4 d_j^2 (lambda tau_j + 1))
                  - 1/sqrt(4 d_j^2 + c^2 tau_j^2)),

analytic off horizontal branch cuts running left from each branch point.
One array evaluator, evans_pair, gives E0 and E0' together; evans_eval is
its guarded scalar view.  Roots in a rectangle come from the contour
moments of E0'/E0: one adaptive Gauss-Legendre quadrature per box gives the
count and, through a Hankel pencil, every root with its multiplicity; a box
holding more than a few roots is quadrisected, and simple roots are Newton
polished together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import (Coupling, PowerSeries, SystemParams, _finite_series, _rsqrt_series,
                         conjugate_pairs, coupling_gradient)
from .errors import BranchCutError, FrontlabError
from .existence import v_star

SQRT2 = math.sqrt(2.0)

#: Distance below which a point counts as sitting on a branch cut.
CUT_CLEARANCE = 1e-12


@dataclass(frozen=True)
class EvansContext:
    """Frozen evaluation context: parameters, speed, cached gradient and cuts."""

    params: SystemParams
    coupling: Coupling
    c: float
    grad: tuple
    branch_points: tuple


def evans_context(params: SystemParams, coupling: Coupling, c: float = 0.0) -> EvansContext:
    tau = np.asarray(params.tau)
    d = np.asarray(params.d)
    with np.errstate(all="ignore"):     # an overflow is raised below instead
        grad = coupling_gradient(coupling, v_star(params, c))
        # G_j(lambda) = 4 d^2 tau * lambda + (c^2 tau^2 + 4 d^2) vanishes at
        # the branch point; the principal-root cut is the real ray to its left.
        bps = -(c * c * tau * tau + 4.0 * d * d) / (4.0 * d * d * tau)
    if not (np.isfinite(grad).all() and np.isfinite(bps).all()):
        raise FrontlabError(f"the Evans function at c = {c:.6g} is not finite: "
                            "the parameters overflow")
    return EvansContext(params=params, coupling=coupling, c=float(c),
                        grad=tuple(float(g) for g in grad),
                        branch_points=tuple(float(b) for b in bps))


def evans_pair(ctx: EvansContext, lam):
    """(E0, E0') at lambda, a complex number or an array of them, without
    the cut guard (contours stay off the cuts).

    With G_j = c^2 tau_j^2 + 4 d_j^2 (tau_j lambda + 1), each term's
    G_j^(-1/2) has the derivative -2 d_j^2 tau_j G_j^(-3/2).
    """
    lam = np.asarray(lam, dtype=complex)
    # E0' = 1 + the terms' derivatives: the number 1 will do unless no term
    # adds an array
    e0, de0 = lam, (1.0 if any(ctx.grad) else np.ones_like(lam))
    for tau, d, g in zip(ctx.params.tau, ctx.params.d, ctx.grad):
        if g == 0.0:
            continue
        base = ctx.c * ctx.c * tau * tau + 4.0 * d * d
        arg = base + 4.0 * d * d * tau * lam      # G_j
        inv_root = 1.0 / np.sqrt(arg)
        e0 = e0 + 3.0 * SQRT2 * g * (inv_root - 1.0 / math.sqrt(base))
        # G_j^(-3/2) as one quotient, which rounds alike on an array and on
        # one point (numpy's scalar complex product does not)
        de0 = de0 + 3.0 * SQRT2 * g * (-2.0 * d * d * tau) * (inv_root / arg)
    return e0, de0


def evans_eval(ctx: EvansContext, lam: complex) -> complex:
    """E0 at lambda; raises BranchCutError within 1e-12 of a cut."""
    lam = complex(lam)
    if abs(lam.imag) <= CUT_CLEARANCE and any(lam.real <= bp + CUT_CLEARANCE
                                              for bp in ctx.branch_points):
        raise BranchCutError(f"lambda = {lam} is within {CUT_CLEARANCE} of a branch cut")
    return complex(evans_pair(ctx, lam)[0])


def evans_taylor_c0(params: SystemParams, coupling: Coupling, order: int) -> PowerSeries:
    """Taylor series at lambda = 0 of E0 for a stationary front (c = 0).

    At c = 0, dF_j(Vstar) = alpha_j and G_j = 4 d_j^2 (1 + tau_j lambda), so
    coefficient k >= 1 is [k = 1] + (3 sqrt(2)/2) sum_j alpha_j y_jk / d_j
    with y_j = (1 + tau_j lambda)^(-1/2) (`core_model._rsqrt_series`); the
    constant term vanishes identically (translation root).
    """
    sums = [0.0] * (order + 1)
    for tau, d, alpha in zip(params.tau, params.d, coupling.alpha, strict=True):
        for k, y in enumerate(_rsqrt_series(1.0, tau, 0.0, order)):
            sums[k] += alpha * y / d
    coeffs = [0.0] + [1.5 * SQRT2 * x for x in sums[1:]]
    if order >= 1:
        coeffs[1] += 1.0
    return _finite_series(coeffs, "E0's Taylor series at c = 0")


def evans_root_bound(ctx: EvansContext) -> float:
    """Radius of a disk containing all roots of E0 at c = 0.

    No roots satisfy |lambda| > 2 max(sum_j |a_j|, 1/min tau) with
    a_j = (3 sqrt(2)/2) alpha_j / d_j.
    """
    if ctx.c != 0.0:
        raise FrontlabError("the root bound is stated for stationary fronts (c = 0)")
    a_sum = 1.5 * SQRT2 * sum(abs(a) / d for a, d in
                              zip(ctx.coupling.alpha, ctx.params.d))
    return 2.0 * max(a_sum, 1.0 / min(ctx.params.tau))


def essential_spectrum_bound(params: SystemParams) -> float:
    """Nominal right edge of the essential spectrum: -epsilon^2 / max tau."""
    return -params.epsilon ** 2 * min(1.0 / t for t in params.tau)


# -- argument-principle root finder -------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities inside a searched rectangle."""

    roots: tuple         # ((complex, int), ...)
    contour: tuple       # (xmin, xmax, ymin, ymax)
    winding_total: int

    @property
    def locations(self):
        return [r for r, _ in self.roots]

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.roots)


def _split_around_cuts(box, cuts):
    """Decompose a box into sub-boxes whose closures avoid the cut rays.

    The cuts are the real intervals (-inf, bp]; right of the rightmost
    branch point the plane is cut-free, so that piece keeps full height,
    while the left part is split above/below a blind strip of half-width
    ~1e-6 around the cuts (documented exclusion).
    """
    xmin, xmax, ymin, ymax = box
    bp = max(cuts) if cuts else -math.inf
    if not cuts or ymin > 0.0 or ymax < 0.0 or xmin > bp:
        return [box]
    margin = 1e-6 * max(1.0, xmax - xmin, ymax - ymin)
    split_x = bp + margin
    pieces = []
    if xmax > split_x:
        pieces.append((split_x, xmax, ymin, ymax))
    left_xmax = min(xmax, split_x)
    if ymax > margin:
        pieces.append((xmin, left_xmax, margin, ymax))
    if ymin < -margin:
        pieces.append((xmin, left_xmax, ymin, -margin))
    return pieces


#: Gauss-Legendre nodes per contour panel.  A panel is accepted, with the
#: value of the rule with twice the nodes, once the two rules agree on every
#: moment to _PANEL_TOL, and cut into _PANEL_SPLIT equal panels otherwise; a
#: panel still open after _PANEL_LEVELS cuts (1e-12 of its edge) means a
#: root on or next to the edge.  The node count is odd: a root at a panel's
#: midpoint then sits on a node, where the two symmetric rules would
#: otherwise agree on its principal value.
_PANEL_NODES = 13
_PANEL_TOL = 1e-8
_PANEL_SPLIT = 4
_PANEL_LEVELS = 20
_X1, _W1 = np.polynomial.legendre.leggauss(_PANEL_NODES)
_X2, _W2 = np.polynomial.legendre.leggauss(2 * _PANEL_NODES)
# all nodes moved to [0, 1], and the two rules' weights there (w / 2) over
# 2 pi i as the columns of one matrix
_NODES = (1.0 + np.concatenate([_X1, _X2])) / 2
_RULES = np.zeros((3 * _PANEL_NODES, 2))
_RULES[:_PANEL_NODES, 0], _RULES[_PANEL_NODES:, 1] = _W1, _W2
_RULES = _RULES / (4j * math.pi)

#: Ratio of the panel breakpoints graded toward a branch point.
_GRADING = 0.2

#: A box holding more roots than this is quadrisected; one Hankel pencil
#: takes the moments s_0 .. s_(2 cap - 1).
_CAP = 6

#: Largest distance of s_0 from the integer it counts.
_COUNT_TOL = 1e-8

#: Singular values of H_0 below this share of the largest are rounding:
#: the numerical rank is the number of distinct roots, so roots within about
#: 1e-4 of a box's half-diagonal of one another can be one cluster to it.
_RANK_CUT = 1e-9

#: Largest distance of a multiple root's multiplicity from a whole number.
_MULT_TOL = 1e-6

#: Newton stops on a step below this share of max(|z|, box radius).
_NEWTON_RTOL = 4e-16

#: Quadrisection lines sit at this fraction of each side, off centre: a box
#: symmetric about the real axis or 0 is not split through E0's real roots.
_SPLIT = 0.4711

#: A cluster the pencil does not part is searched again at its own scale,
#: in a square of this many times the spread of its pencil roots.
_ZOOM = 8.0


def _edge_panels(a, b, cuts):
    """Breakpoints (in t of z = a + t (b - a)) of the edge a -> b: its
    halves, graded geometrically toward each branch point within half an
    edge length."""
    length = abs(b - a)
    ts = {0.0, 0.5, 1.0}
    for p in cuts:
        t = min(max(((p - a) / (b - a)).real, 0.0), 1.0)
        dist = abs(a + t * (b - a) - p)
        h = 0.5
        while dist < h * length and h > 1e-16:
            ts.update((t - h, t + h))
            h *= _GRADING
    ts = sorted(t for t in ts if 0.0 <= t <= 1.0)
    return zip(ts[:-1], ts[1:])


def _unresolved(searched, box):
    return FrontlabError(f"winding number of the searched box {searched} not resolved "
                         f"on the contour {box}: a root on or near its edge?")


def _moments(fdf, boxes, cuts, searched):
    """Contour moments s_k = (1/2 pi i) oint u^k f'/f dz, k < 2 cap, of each
    box by adaptive Gauss-Legendre panels, with the centres and radii of the
    boxes' unit-disk coordinates u = (z - centre)/radius (corners on the
    circle).

    Each edge is laid out in its increasing direction, with a sign for the
    orientation, so that an edge two boxes share has the same nodes; every
    level evaluates the distinct nodes of all open panels in one fdf call.
    """
    panels = []
    for i, (x0, x1, y0, y1) in enumerate(boxes):
        for a, b, orient in ((complex(x0, y0), complex(x1, y0), 1),
                             (complex(x1, y0), complex(x1, y1), 1),
                             (complex(x0, y1), complex(x1, y1), -1),
                             (complex(x0, y0), complex(x0, y1), -1)):
            panels += [(i, a + t0 * (b - a), (t1 - t0) * (b - a), orient)
                       for t0, t1 in _edge_panels(a, b, cuts)]
    owner, start, span, sign = map(np.array, zip(*panels))
    x0, x1, y0, y1 = np.array(boxes).T
    centre, radius = (x0 + x1 + 1j * (y0 + y1)) / 2, np.hypot(x1 - x0, y1 - y0) / 2
    sums = np.zeros((len(boxes), 2 * _CAP), dtype=complex)
    for _level in range(_PANEL_LEVELS):
        z = start[:, None] + span[:, None] * _NODES
        # children of one quadrisection share edges: each node once; a lone
        # box's nodes never repeat, and np.unique would add a fifth to its
        # search
        points, inverse = (np.unique(z, return_inverse=True) if len(boxes) > 1
                           else (z.ravel(), slice(None)))
        f, df = fdf(points)
        # powers[k] = u^k f'/f at each node of each panel
        powers = np.empty((2 * _CAP,) + z.shape, dtype=complex)
        powers[0] = (df / f)[inverse].reshape(z.shape)
        if not np.isfinite(powers[0]).all():
            raise _unresolved(searched, boxes[owner[np.argmin(np.isfinite(powers[0]).all(1))]])
        u = (z - centre[owner][:, None]) * (1.0 / radius[owner])[:, None]
        for k in range(1, 2 * _CAP):
            np.multiply(powers[k - 1], u, out=powers[k])
        # both rules at once: (moment, panel, rule)
        rules = np.dot(powers.reshape(-1, z.shape[1]), _RULES).reshape(2 * _CAP, -1, 2)
        rules *= (sign * span)[:, None]
        done = np.abs(rules[..., 0] - rules[..., 1]).max(axis=0) <= _PANEL_TOL
        np.add.at(sums, owner[done], rules[:, done, 1].T)
        if done.all():
            return sums, centre, radius
        keep = ~done
        owner, sign = owner[keep].repeat(_PANEL_SPLIT), sign[keep].repeat(_PANEL_SPLIT)
        span = (span[keep] / _PANEL_SPLIT).repeat(_PANEL_SPLIT)
        start = start[keep].repeat(_PANEL_SPLIT) + span * (np.arange(len(span)) % _PANEL_SPLIT)
    raise _unresolved(searched, boxes[owner[0]])


def _pencil(s, count):
    """Roots (unit-disk coordinate) and multiplicities of a box holding count
    roots, from its moments s: the rank r of H_0 = [s_(i+j)] counts the
    distinct roots, the reduced pencil (H_1, H_0) gives them and, below full
    rank, a Vandermonde solve on s_0..s_(r-1) their multiplicities, None
    unless each is whole to _MULT_TOL and at least 1 (roots that the rank cut
    took for fewer have fractional weights; all weights add up to s_0)."""
    if count == 1:
        return np.array([s[1] / s[0]]), [1]
    idx = np.add.outer(np.arange(count), np.arange(count))
    left, sig, right = np.linalg.svd(s[idx])
    r = int(np.count_nonzero(sig > _RANK_CUT * sig[0]))
    reduced = left[:, :r].conj().T @ s[idx + 1] @ right[:r].conj().T / sig[:r, None]
    u = np.linalg.eigvals(reduced)
    if r == count:
        return u, [1] * count
    mult = np.linalg.solve(np.vander(u, r, increasing=True).T, s[:r])
    whole = np.rint(mult.real)
    if np.abs(mult - whole).max() > _MULT_TOL or whole.min() < 1:
        return u, None
    return u, [int(m) for m in whole]


def _polish(fdf, found):
    """Newton on all simple roots of found (location, mult, box) together,
    in place, one fdf call per iteration.

    A root stops once its step falls below _NEWTON_RTOL max(|z|, radius); a
    step not below half the one before it is rounding noise and is not
    taken, and a step that leaves the root's box keeps the pencil value.
    The halving bounds the iterations.
    """
    start = {i: z for i, (z, m, _b) in enumerate(found) if m == 1}
    last = dict.fromkeys(start, math.inf)
    active = list(start)
    while active:
        f, df = fdf(np.array([found[i][0] for i in active]))
        going = []
        for i, fi, dfi in zip(active, f.tolist(), df.tolist()):
            z, _m, (x0, x1, y0, y1) = found[i]
            step = fi / dfi if dfi else math.inf
            if not abs(step) < 0.5 * last[i]:
                continue
            z, last[i] = z - step, abs(step)
            if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
                z = start[i]
            elif last[i] > _NEWTON_RTOL * max(abs(z), math.hypot(x1 - x0, y1 - y0) / 2):
                going.append(i)
            found[i] = (z, 1, found[i][2])
        active = going


def _quarters(b):
    """The four children of box b, split at _SPLIT of each side."""
    x0, x1, y0, y1 = b
    xm, ym = x0 + _SPLIT * (x1 - x0), y0 + _SPLIT * (y1 - y0)
    return [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]


def _zoom(b, z):
    """The square of half-side _ZOOM times the spread of the points z about
    their middle, within box b; None unless its diagonal is below half b's."""
    mid = complex(z.real.min() + z.real.max(), z.imag.min() + z.imag.max()) / 2
    h = _ZOOM * float(np.abs(z - mid).max())
    sq = (max(b[0], mid.real - h), min(b[1], mid.real + h),
          max(b[2], mid.imag - h), min(b[3], mid.imag + h))
    wide = math.hypot(sq[1] - sq[0], sq[3] - sq[2]) >= 0.5 * math.hypot(b[1] - b[0], b[3] - b[2])
    return None if wide else sq


@np.errstate(all="ignore")   # a root on a node gives a non-finite f'/f, an error
def holomorphic_roots(fdf, box, tol=1e-9, cuts=()):
    """Roots of an analytic f inside a rectangle from contour moments.

    fdf maps an array of points to the arrays (f, f').  The moments of f'/f
    around each box (one adaptive quadrature per box) count its roots and,
    through a Hankel pencil, locate them.  A box is quadrisected when it
    holds more than _CAP roots, when its simple roots polish (together, by
    Newton) to within tol of each other, or when its pencil's weights are
    fractional and no _zoom square holds all its roots.  A multiple root, or
    a cluster the rank cut does not part (_RANK_CUT), is one root at its
    moment centroid; roots closer than tol are merged.  Returns (roots,
    winding_total), roots a list of (location, mult).  A root on or next to
    an edge (a panel that does not converge, a non-finite f'/f) raises
    FrontlabError.
    """
    box = tuple(float(b) for b in box)
    boxes, zoomed, found, total = _split_around_cuts(box, cuts), {}, [], None
    while boxes:
        moments, centres, radii = _moments(fdf, boxes, cuts, box)
        counts = np.rint(moments[:, 0].real).astype(int)
        miss = np.abs(moments[:, 0] - counts)
        if miss.max() > _COUNT_TOL:
            raise _unresolved(box, boxes[int(np.argmax(miss))])
        if total is None:
            total = int(counts.sum())
        children, level = [], []
        for b, s, count, centre, radius in zip(boxes, moments, counts, centres, radii):
            if b in zoomed and zoomed[b][0] != count:   # the square missed some roots
                children += _quarters(zoomed[b][1])
                continue
            if count == 0:
                continue
            u, mult = _pencil(s, count) if count <= _CAP else (None, None)
            if mult is not None:
                level += [(complex(centre + radius * ui), m, b) for ui, m in zip(u, mult)]
            elif 2.0 * radius < tol:
                found.append((complex(centre + radius * s[1] / s[0]), int(count)))
            elif u is not None and (sq := _zoom(b, centre + radius * u)) is not None:
                zoomed[sq] = (count, b)
                children.append(sq)
            else:
                children += _quarters(b)
        _polish(fdf, level)
        for b, group in itertools.groupby(level, key=lambda zmb: zmb[2]):
            group = [(z, m) for z, m, _b in group]
            simple = [z for z, m in group if m == 1]
            if (math.hypot(b[1] - b[0], b[3] - b[2]) >= tol
                    and any(abs(z - w) < tol for z, w in itertools.combinations(simple, 2))):
                children += _quarters(b)
            else:
                found += group
        boxes = children
    roots = []
    for z, m in found:
        for i, (w, k) in enumerate(roots):
            if abs(z - w) < tol:
                roots[i] = ((k * w + m * z) / (k + m), k + m)
                break
        else:
            roots.append((z, m))
    return roots, total


def evans_roots(ctx: EvansContext, region) -> RootSet:
    """Roots of E0 in a rectangle (xmin, xmax, ymin, ymax) of the plane.

    The search region is decomposed around the branch cuts (a strip of width
    ~1e-6 around each cut is excluded); the winding total equals the summed
    multiplicities over the searched area.  E0 is conjugate-symmetric, so
    each pair of roots is made exactly conjugate; the roots are ordered by
    real part, ties by imaginary part.
    """
    box = tuple(float(b) for b in region)
    if not (box[1] > box[0] and box[3] > box[2]):
        raise FrontlabError(f"degenerate search rectangle {box}")
    roots, total = holomorphic_roots(lambda z: evans_pair(ctx, z), box,
                                     cuts=ctx.branch_points)
    tidy = conjugate_pairs([z for z, _m in roots])
    roots = sorted(((complex(z), m) for z, (_z, m) in zip(tidy, roots)),
                   key=lambda rm: (rm[0].real, rm[0].imag))
    return RootSet(roots=tuple(roots), contour=box, winding_total=total)
