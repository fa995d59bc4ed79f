"""Evans function for travelling fronts: evaluation, expansion, root counting.

The critical point spectrum of the linearization at a front with speed c is
(after an epsilon^2 rescaling) the root set of

    E0(lambda) = lambda + 3 sqrt(2) sum_j dF_j(Vstar) *
                 (1/sqrt(c^2 tau_j^2 + 4 d_j^2 (lambda tau_j + 1))
                  - 1/sqrt(4 d_j^2 + c^2 tau_j^2)),

analytic off horizontal branch cuts running left from each branch point.
Roots are counted and located by the argument principle on rectangles with
recursive quadrisection, and polished by Newton.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core_model import Coupling, PowerSeries, SystemParams, coupling_gradient, double_factorial
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


def _on_cut(ctx: EvansContext, lam: complex) -> bool:
    if abs(lam.imag) > CUT_CLEARANCE:
        return False
    return any(lam.real <= bp + CUT_CLEARANCE for bp in ctx.branch_points)


def evans_eval(ctx: EvansContext, lam: complex) -> complex:
    """E0 at lambda; raises BranchCutError within 1e-12 of a cut."""
    lam = complex(lam)
    if _on_cut(ctx, lam):
        raise BranchCutError(f"lambda = {lam} is within {CUT_CLEARANCE} of a branch cut")
    return evans_eval_unchecked(ctx, lam)


def evans_eval_unchecked(ctx: EvansContext, lam: complex) -> complex:
    """E0 without the cut-proximity guard (contours stay off the cuts)."""
    lam = complex(lam)
    total = lam
    c = ctx.c
    for j in range(ctx.params.n_slow):
        tau, d, g = ctx.params.tau[j], ctx.params.d[j], ctx.grad[j]
        if g == 0.0:
            continue
        base = c * c * tau * tau + 4.0 * d * d
        total += 3.0 * SQRT2 * g * (1.0 / cmath.sqrt(base + 4.0 * d * d * tau * lam)
                                    - 1.0 / math.sqrt(base))
    return total


def evans_derivative(ctx: EvansContext, lam: complex) -> complex:
    lam = complex(lam)
    total = 1.0 + 0.0j
    c = ctx.c
    for j in range(ctx.params.n_slow):
        tau, d, g = ctx.params.tau[j], ctx.params.d[j], ctx.grad[j]
        if g == 0.0:
            continue
        arg = c * c * tau * tau + 4.0 * d * d * (tau * lam + 1.0)
        total += 3.0 * SQRT2 * g * (-2.0 * d * d * tau) * arg ** -1.5
    return total


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
    def __init__(self, box):
        super().__init__(f"winding inconsistency in box {box}")
        self.box = box


def _boundary_path(box):
    xmin, xmax, ymin, ymax = box
    n = _EDGE_SAMPLES
    bottom = [complex(x, ymin) for x in np.linspace(xmin, xmax, n, endpoint=False)]
    right = [complex(xmax, y) for y in np.linspace(ymin, ymax, n, endpoint=False)]
    top = [complex(x, ymax) for x in np.linspace(xmax, xmin, n, endpoint=False)]
    left = [complex(xmin, y) for y in np.linspace(ymax, ymin, n, endpoint=False)]
    return bottom + right + top + left


def _sample(f, df, z):
    """(z, f(z), f'(z)); a pole or a non-finite f(z) is a root on the contour."""
    try:
        fz, dfz = f(z), df(z)
    except ZeroDivisionError as exc:
        raise _BoundaryZero(z) from exc
    if not (math.isfinite(fz.real) and math.isfinite(fz.imag)):
        raise _BoundaryZero(z)
    return z, fz, dfz


def _winding_number(f, df, box):
    """Winding of f along the box boundary via phase-continuity tracking.

    Each consecutive phase increment is kept below pi/2 by recursive segment
    refinement.  The principal-phase rule alone can alias a near-full turn
    between two samples, so segments longer than the Newton step |f/f'| (a
    root-distance proxy) at either end are refined as well; each sample
    carries (z, f, f').  Refinement stops at depth 42; samples below 1e-13
    of the largest boundary value count as a root on the contour.
    """
    samples = [_sample(f, df, z) for z in _boundary_path(box)]
    samples.append(samples[0])
    diam = math.hypot(box[1] - box[0], box[3] - box[2])
    # relative scale: a small box around a multiple root has uniformly tiny
    # boundary values but perfectly conditioned phases
    scale = max(abs(fz) for _z, fz, _dfz in samples)
    if scale == 0.0:
        raise _BoundaryZero(samples[0][0])

    total = 0.0
    for s0, s1 in zip(samples, samples[1:]):
        total += _phase_increment(f, df, s0, s1, 42, 1e-13 * scale, diam)
    turns = total / (2.0 * math.pi)
    rounded = int(round(turns))
    if abs(turns - rounded) > 0.25:
        raise _WindingFailure(box)
    return rounded


def _needs_split(s0, s1):
    (z0, f0, _), (z1, f1, _) = s0, s1
    if abs(cmath.phase(f1 / f0)) > 0.5 * math.pi:
        return True
    seg = abs(z1 - z0)
    return any(dfz != 0 and seg > abs(fz / dfz) for _z, fz, dfz in (s0, s1))


def _phase_increment(f, df, s0, s1, depth, zero_tol, diam):
    (z0, f0, _), (z1, f1, _) = s0, s1
    if abs(f0) <= zero_tol or abs(f1) <= zero_tol:
        # A boundary sample (numerically) hits a root; nudge the box instead.
        raise _BoundaryZero(z0 if abs(f0) <= abs(f1) else z1)
    if not _needs_split(s0, s1):
        return cmath.phase(f1 / f0)
    if depth <= 0 or abs(z1 - z0) < 1e-15 * diam:
        raise _WindingFailure((z0, z1))
    sm = _sample(f, df, 0.5 * (z0 + z1))
    return (_phase_increment(f, df, s0, sm, depth - 1, zero_tol, diam)
            + _phase_increment(f, df, sm, s1, depth - 1, zero_tol, diam))


class _BoundaryZero(Exception):
    def __init__(self, where):
        super().__init__(f"root on contour near {where}")
        self.where = where


def _winding_with_nudge(f, df, box, cuts):
    """Winding number, retrying with slightly inflated boxes on boundary hits."""
    original = tuple(box)
    box = original
    for attempt in range(6):
        try:
            return _winding_number(f, df, box), box
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


def _quadrisect(f, df, box, w):
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
            ws = [_winding_number(f, df, child) for child in children]
        except (_BoundaryZero, _WindingFailure):
            continue
        if sum(ws) == w:
            return [(child, wc) for child, wc in zip(children, ws) if wc]
    raise FrontlabError(
        f"could not quadrisect box {box} without pinning a root on the cut lines")


def holomorphic_roots(f, df, box, tol=1e-9, cuts=()):
    """Roots of an analytic f inside a rectangle by winding + quadrisection.

    Boxes are quadrisected, at most 60 levels deep, until they hold winding
    <= 1 (simple root, Newton polished to |f| <= 1e-12) or have diameter
    < tol (reported as a multiplicity cluster).  Returns (roots,
    winding_total) where roots is a list of (location, mult).
    """
    pieces = _split_around_cuts(tuple(float(b) for b in box), cuts)
    roots = []
    winding_total = 0

    stack = []
    for piece in pieces:
        # only the outermost contour is nudged outward on a boundary hit
        w, piece = _winding_with_nudge(f, df, piece, cuts)
        winding_total += w
        if w:
            stack.append((piece, w, 0))

    while stack:
        b, w, depth = stack.pop()
        diam = math.hypot(b[1] - b[0], b[3] - b[2])
        if w == 1:
            root = _newton_polish(f, df, complex(0.5 * (b[0] + b[1]),
                                                 0.5 * (b[2] + b[3])), b)
            if root is not None:
                roots.append((root, 1))
                continue
            if diam < tol:
                roots.append((complex(0.5 * (b[0] + b[1]),
                                      0.5 * (b[2] + b[3])), 1))
                continue
            # Newton left the box (a nearby root's basin); keep subdividing.
        elif diam < tol:
            roots.append((complex(0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3])), w))
            continue
        if depth >= 60:
            raise FrontlabError(f"winding {w} not resolved above depth 60 in box {b}")
        try:
            children = _quadrisect(f, df, b, w)
        except FrontlabError:
            # Evaluation noise exceeds |f| on every trial contour: an
            # m-fold cluster cannot be localized more tightly than the
            # noise-floor diameter ~ (eval noise)**(1/m); report it here.
            roots.append((complex(0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3])), w))
            continue
        for child, wc in children:
            stack.append((child, wc, depth + 1))
    return roots, winding_total


def _newton_polish(f, df, z, box):
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
        try:
            fz = f(z)
            dfz = df(z)
        except ZeroDivisionError:
            return None
        if abs(fz) <= newton_tol:
            return z if _accept(z) else None
        if dfz == 0:
            return None
        step = fz / dfz
        z = z - step
        if not (lo_x <= z.real <= hi_x and lo_y <= z.imag <= hi_y):
            return None
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            return z if _accept(z) and abs(f(z)) <= 1e3 * newton_tol else None
    return None


def evans_roots(ctx: EvansContext, region) -> RootSet:
    """Roots of E0 in a rectangle (xmin, xmax, ymin, ymax) of the plane.

    The search region is decomposed around the branch cuts (a strip of width
    ~1e-6 around each cut is excluded); the winding total equals the summed
    multiplicities over the searched area.
    """
    box = tuple(float(b) for b in region)
    if not (box[1] > box[0] and box[3] > box[2]):
        raise FrontlabError(f"degenerate search rectangle {box}")
    roots, total = holomorphic_roots(
        lambda z: evans_eval_unchecked(ctx, z),
        lambda z: evans_derivative(ctx, z),
        box, cuts=ctx.branch_points)
    roots = sorted(roots, key=lambda rm: (rm[0].real, rm[0].imag))
    return RootSet(roots=tuple(roots), contour=box, winding_total=total)
