"""Evans function for travelling fronts: evaluation, expansion, root counting.

The critical point spectrum of the linearization at a front with speed c is
(after an epsilon^2 rescaling) the root set of

    E0(lambda) = lambda + 3 sqrt(2) sum_j dF_j(Vstar) *
                 (1/sqrt(c^2 tau_j^2 + 4 d_j^2 (lambda tau_j + 1))
                  - 1/sqrt(4 d_j^2 + c^2 tau_j^2)),

analytic off horizontal branch cuts running left from each branch point.
One array evaluator, evans_pair, gives E0 and E0' together; evans_eval is
its guarded scalar view.  Roots are counted by the argument principle on
rectangles, each contour evaluated in one call per refinement level, located
by recursive quadrisection and polished by Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (Coupling, PowerSeries, SystemParams, conjugate_pairs, coupling_gradient,
                         double_factorial)
from .errors import BranchCutError, FrontlabError
from .existence import v_star

SQRT2 = math.sqrt(2.0)

#: Distance below which a point counts as sitting on a branch cut.
CUT_CLEARANCE = 1e-12

#: Samples per edge of every winding contour.
_EDGE_SAMPLES = 24


@dataclass(frozen=True)
class EvansContext:
    """Frozen evaluation context: parameters, speed, cached gradient and cuts."""

    params: SystemParams
    coupling: Coupling
    c: float
    grad: tuple
    branch_points: tuple


def evans_context(params: SystemParams, coupling: Coupling, c: float = 0.0) -> EvansContext:
    grad = coupling_gradient(coupling, v_star(params, c))
    tau = np.asarray(params.tau)
    d = np.asarray(params.d)
    # G_j(lambda) = 4 d^2 tau * lambda + (c^2 tau^2 + 4 d^2) vanishes at the
    # branch point; the principal-root cut is the real ray to its left.
    bps = -(c * c * tau * tau + 4.0 * d * d) / (4.0 * d * d * tau)
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
    e0, de0 = lam, np.ones_like(lam)
    for tau, d, g in zip(ctx.params.tau, ctx.params.d, ctx.grad):
        if g == 0.0:
            continue
        base = ctx.c * ctx.c * tau * tau + 4.0 * d * d
        inv_root = 1.0 / np.sqrt(base + 4.0 * d * d * tau * lam)
        e0 = e0 + 3.0 * SQRT2 * g * (inv_root - 1.0 / math.sqrt(base))
        de0 = de0 + 3.0 * SQRT2 * g * (-2.0 * d * d * tau) * inv_root ** 3
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

    The constant term vanishes identically (translation root); coefficient k
    follows from the binomial series of (1 + tau lambda)^(-1/2).
    """
    tau = np.asarray(params.tau)
    d = np.asarray(params.d)
    alpha = np.asarray(coupling.alpha)
    coeffs = [0.0] * (order + 1)
    if order >= 1:
        coeffs[1] = 1.0 - 0.75 * SQRT2 * float(np.sum(alpha * tau / d))
    for k in range(2, order + 1):
        weight = ((-1) ** k * double_factorial(2 * k - 1) / double_factorial(2 * k))
        coeffs[k] = 1.5 * SQRT2 * weight * float(np.sum(alpha * tau ** k / d))
    return PowerSeries(tuple(coeffs))


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


class _WindingFailure(Exception):
    """The winding number on the box given as the argument is not resolved."""


class _BoundaryZero(Exception):
    """A contour sample at the point given as the argument hits a root or pole."""


def _boundary_path(box):
    """The contour samples, counter-clockwise from the corner (xmin, ymin)."""
    xmin, xmax, ymin, ymax = box
    n = _EDGE_SAMPLES
    return np.concatenate([np.linspace(xmin, xmax, n, endpoint=False) + 1j * ymin,
                           xmax + 1j * np.linspace(ymin, ymax, n, endpoint=False),
                           np.linspace(xmax, xmin, n, endpoint=False) + 1j * ymax,
                           xmin + 1j * np.linspace(ymax, ymin, n, endpoint=False)])


def _finite_pair(fdf, z):
    """(f, f') on the points z; a pole or a non-finite f is a root on the contour."""
    f, df = fdf(z)
    bad = ~np.isfinite(f)
    if bad.any():
        raise _BoundaryZero(z[bad][0])
    return f, df


def _winding_number(fdf, box):
    """Winding of f along the box boundary via phase-continuity tracking.

    One fdf call gives f and f' on the boundary samples.  The contour is then
    refined level by level: every segment whose phase increment exceeds
    pi/2, or that is longer than the Newton step |f/f'| at either end (a
    root-distance proxy: the principal phase alone can alias a near-full
    turn), gets its midpoint, and one fdf call per level evaluates them all.
    A segment still flagged after 42 levels, or shorter than 1e-15 of the
    box diameter, is a failure; a sample below 1e-13 of the largest boundary
    value counts as a root on the contour.
    """
    z = _boundary_path(box)
    f, df = _finite_pair(fdf, z)
    # relative scale: a small box around a multiple root has uniformly tiny
    # boundary values but perfectly conditioned phases
    scale = np.max(np.abs(f))
    if scale == 0.0:
        raise _BoundaryZero(z[0])
    z, f, df = (np.append(a, a[0]) for a in (z, f, df))
    diam = math.hypot(box[1] - box[0], box[3] - box[2])
    for level in range(43):
        small = np.abs(f) <= 1e-13 * scale
        if small.any():
            # a sample (numerically) hits a root; the caller nudges the box
            raise _BoundaryZero(z[np.argmax(small)])
        increments = np.angle(f[1:] / f[:-1])
        seg = np.abs(np.diff(z))
        reach = np.abs(f / df)          # inf where f' = 0: no length limit
        flag = (np.abs(increments) > 0.5 * math.pi) | (seg > reach[:-1]) | (seg > reach[1:])
        if not flag.any():
            break
        if level == 42 or np.any(seg[flag] < 1e-15 * diam):
            raise _WindingFailure(box)
        at = np.nonzero(flag)[0]
        zm = 0.5 * (z[at] + z[at + 1])
        fm, dfm = _finite_pair(fdf, zm)
        z, f, df = (np.insert(a, at + 1, am) for a, am in ((z, zm), (f, fm), (df, dfm)))
    turns = np.sum(increments) / (2.0 * math.pi)
    rounded = int(round(turns))
    if abs(turns - rounded) > 0.25:
        raise _WindingFailure(box)
    return rounded


def _winding_with_nudge(fdf, box, cuts):
    """Winding number, retrying with slightly inflated boxes on boundary hits."""
    original = tuple(box)
    box = original
    for attempt in range(6):
        try:
            return _winding_number(fdf, box), box
        except _BoundaryZero:
            pad = (1e-6 + attempt * 3e-6) * max(box[1] - box[0], box[3] - box[2], 1e-6)
            box = (box[0] - pad, box[1] + pad, box[2] - pad, box[3] + pad)
            box = _clear_of_cuts(box, cuts, original)
    raise _WindingFailure(box)


def _clear_of_cuts(box, cuts, original):
    """Clamp an inflated box so it stays on its original side of the cuts."""
    if not cuts:
        return box
    bp = max(cuts)
    xmin, xmax, ymin, ymax = box
    oxmin, _oxmax, oymin, oymax = original
    if oymin > 0.0:
        ymin = max(ymin, 0.5 * oymin)
    if oymax < 0.0:
        ymax = min(ymax, 0.5 * oymax)
    if oxmin > bp:
        xmin = max(xmin, bp + 0.5 * (oxmin - bp))
    return (xmin, xmax, ymin, ymax)


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


#: Split fractions tried in turn when a quadrisection line hits a root.
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.59, 0.41, 0.67, 0.33)


def _quadrisect(fdf, box, w):
    """Split a box into four children whose boundaries avoid all roots.

    If a subdivision line passes (numerically) through a root, retry with a
    shifted split fraction; children must account for the parent's winding.
    """
    for frac in _SPLIT_FRACTIONS:
        xm = box[0] + frac * (box[1] - box[0])
        ym = box[2] + frac * (box[3] - box[2])
        children = [(box[0], xm, box[2], ym), (xm, box[1], box[2], ym),
                    (box[0], xm, ym, box[3]), (xm, box[1], ym, box[3])]
        try:
            ws = [_winding_number(fdf, child) for child in children]
        except (_BoundaryZero, _WindingFailure):
            continue
        if sum(ws) == w:
            return [(child, wc) for child, wc in zip(children, ws) if wc]
    raise FrontlabError(
        f"could not quadrisect box {box} without pinning a root on the cut lines")


@np.errstate(all="ignore")   # poles and non-finite values are handled as roots
def holomorphic_roots(fdf, box, tol=1e-9, cuts=()):
    """Roots of an analytic f inside a rectangle by winding + quadrisection.

    fdf maps an array of points to the arrays (f, f').  Boxes are
    quadrisected, at most 60 levels deep, until they hold winding <= 1
    (simple root, Newton polished to |f| <= 1e-12) or have diameter < tol
    (reported as a multiplicity cluster).  Returns (roots, winding_total)
    where roots is a list of (location, mult).  A searched box whose winding
    number cannot be resolved, mostly one with a root on its edge, raises
    FrontlabError.
    """
    box = tuple(float(b) for b in box)
    stack = []
    for piece in _split_around_cuts(box, cuts):
        # only the outermost contour is nudged outward on a boundary hit
        try:
            w, piece = _winding_with_nudge(fdf, piece, cuts)
        except _WindingFailure as exc:
            raise FrontlabError(f"winding number of the searched box {box} not resolved "
                                f"on the contour {exc}: a root on or near its edge?") from None
        if w:
            stack.append((piece, w, 0))
    winding_total = sum(w for _piece, w, _depth in stack)

    roots = []
    while stack:
        b, w, depth = stack.pop()
        center = complex(0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3]))
        root = _newton_polish(fdf, center, b) if w == 1 else None
        if root is not None:
            roots.append((root, 1))
            continue
        # Newton left the box (a nearby root's basin) or w > 1: a box below
        # tol is a cluster, a larger one is subdivided
        if math.hypot(b[1] - b[0], b[3] - b[2]) < tol:
            roots.append((center, w))
            continue
        if depth >= 60:
            raise FrontlabError(f"winding {w} not resolved above depth 60 in box {b}")
        try:
            children = _quadrisect(fdf, b, w)
        except FrontlabError:
            # Evaluation noise exceeds |f| on every trial contour: an
            # m-fold cluster cannot be localized more tightly than the
            # noise-floor diameter ~ (eval noise)**(1/m); report it here.
            roots.append((center, w))
            continue
        for child, wc in children:
            stack.append((child, wc, depth + 1))
    return roots, winding_total


def _newton_polish(fdf, z, box):
    """Newton iteration confined to (a slightly inflated copy of) the box.

    Returns None when the iteration leaves the box or stalls above |f| =
    1e-12 within 80 steps, in which case the caller subdivides further.
    """
    newton_tol = 1e-12
    span = max(box[1] - box[0], box[3] - box[2])
    pad = 0.25 * span
    lo_x, hi_x = box[0] - pad, box[1] + pad
    lo_y, hi_y = box[2] - pad, box[3] + pad
    slack = 1e-9 * span

    def _accept(zz):
        return (box[0] - slack <= zz.real <= box[1] + slack
                and box[2] - slack <= zz.imag <= box[3] + slack)

    for _ in range(80):
        # a non-finite value ends the iteration at the box test below
        fz, dfz = map(complex, fdf(z))
        if abs(fz) <= newton_tol:
            return z if _accept(z) else None
        if dfz == 0:
            return None
        step = fz / dfz
        z = z - step
        if not (lo_x <= z.real <= hi_x and lo_y <= z.imag <= hi_y):
            return None
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            return z if _accept(z) and abs(complex(fdf(z)[0])) <= 1e3 * newton_tol else None
    return None


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
