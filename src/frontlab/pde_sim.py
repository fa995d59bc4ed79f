"""Direct solver for the (N+1)-component fast/slow reaction-diffusion system.

Method of lines on a uniform grid with homogeneous Neumann boundaries.  One
discretized system, `_FrontSystem`, holds the (N+1, n_x) layout, the
Neumann stencils, the per-row diffusion, advection and mass coefficients
and the reaction rows, and every solver runs on it: IMEX time stepping
(implicit diffusion by a symmetric LDL^T tridiagonal solve, explicit
reaction, optional Strang splitting) with freezing-based speed extraction,
damped Newton solvers for stationary and travelling fronts with a phase
condition, pseudo-arclength continuation with fold/Hopf detection, and
linearization spectra for cross-validation against the Evans-function
predictions.
"""

from __future__ import annotations

import copy
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import eigs as sparse_eigs
from scipy.sparse.linalg import splu

from .core_model import Coupling, SystemParams, coupling_gradient, eval_coupling
from .errors import ConvergenceError, FrontlabError
from .existence import front_profile
from .jordan_chain import ChainProfile

#: Residual sup norm at which the continuation's Newton solves stop.
BRANCH_RES_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [-L, L] with homogeneous Neumann boundaries."""

    half_length: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 3:
            raise FrontlabError("need at least 3 grid nodes")
        if self.half_length <= 0:
            raise FrontlabError("domain half length must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / (self.n_x - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n_x)

    def check_resolves(self, epsilon: float):
        if self.h > epsilon / 2.0:
            warnings.warn(
                f"grid spacing h={self.h:.4g} exceeds epsilon/2={epsilon / 2:.4g}; "
                "the fast interface is under-resolved", stacklevel=3)
        return self


def make_grid(half_length: float, n_x: int, epsilon: float | None = None) -> Grid:
    grid = Grid(half_length=float(half_length), n_x=int(n_x))
    if epsilon is not None:
        grid.check_resolves(epsilon)
    return grid


@dataclass
class PdeState:
    """Field state: U values and the N slow component arrays on a grid."""

    t: float
    u: np.ndarray
    v: np.ndarray            # shape (N, n_x)
    params: SystemParams
    coupling: Coupling
    grid: Grid

    def __post_init__(self):
        n, nx = self.params.n_slow, self.grid.n_x
        if self.u.shape != (nx,) or self.v.shape != (n, nx):
            raise FrontlabError("field shapes inconsistent with grid/params")


def initial_front_state(params: SystemParams, coupling: Coupling, grid: Grid,
                        c: float = 0.0) -> PdeState:
    """Seed state from the leading-order front profile at speed c.

    The interface tanh is used globally and the slow fields are matched at
    y = 0 (where both exponential branches equal the plateau value),
    avoiding the O(sqrt(eps)) seams of the piecewise profile; Newton then
    converges in a few steps.
    """
    grid.check_resolves(params.epsilon)
    prof = front_profile(params, coupling, c, residual_tol=np.inf)
    x = grid.x
    u = np.tanh(x / (math.sqrt(2.0) * params.epsilon))
    v = np.empty((params.n_slow, grid.n_x))
    for j in range(1, params.n_slow + 1):
        vs = prof.v_star[j - 1]
        lp = prof.lambda_plus[j - 1]
        lm = prof.lambda_minus[j - 1]
        left = (vs + 1.0) * np.exp(lp * x) - 1.0
        right = (vs - 1.0) * np.exp(lm * x) + 1.0
        v[j - 1] = np.where(x < 0, left, right)
    return PdeState(t=0.0, u=u, v=v, params=params, coupling=coupling, grid=grid)


def perturb_with_profile(state: PdeState, profile: ChainProfile,
                         amplitude: float) -> PdeState:
    """Add an eigenfunction-shaped perturbation (rescaled to unit sup norm)."""
    x = state.grid.x
    du = np.real(np.asarray(profile.u(x), dtype=complex))
    dv = np.stack([np.real(np.asarray(profile.v(j, x), dtype=complex))
                   for j in range(1, state.params.n_slow + 1)])
    scale = max(np.max(np.abs(du)), np.max(np.abs(dv)))
    return replace(state, u=state.u + amplitude * du / scale,
                   v=state.v + amplitude * dv / scale)


def perturb_with_bump(state: PdeState, amplitude: float, width: float = 1.0,
                      center: float = 0.0) -> PdeState:
    x = state.grid.x
    bump = amplitude * np.exp(-((x - center) / width) ** 2)
    return replace(state, u=state.u + bump, v=state.v.copy())


# -- time stepping -------------------------------------------------------------

def stable_reaction_dt(params: SystemParams) -> float:
    """Explicit-reaction step bound: 0.5 / max(2, eps^2 / min tau)."""
    return 0.5 / max(2.0, params.epsilon ** 2 / min(params.tau))


def default_dt(params: SystemParams) -> float:
    return 1e-2 * min(1.0, min(params.tau))


def step(state: PdeState, dt: float, strang: bool = False) -> PdeState:
    """Advance one IMEX step (first order; `strang` enables second order).

    Diffusion is implicit, each row solved with the LDL^T factors of its
    trapezoid-weighted symmetric matrix; reactions are explicit; steps
    exceeding the explicit-reaction stability bound are sub-stepped.
    """
    if dt <= 0:
        raise FrontlabError("dt must be positive")
    system = _FrontSystem(state.params, state.coupling, state.grid)
    x, t = system.advance(system.flat(state), state.t, dt, strang)
    return system.state(x, t)


# -- time simulation with freezing diagnostics ---------------------------------

def front_position(u: np.ndarray, x: np.ndarray):
    """Linear-interpolated zero crossing; raises unless exactly one exists.

    Exact zero nodes count as part of the crossing between runs of opposite
    sign rather than as separate crossings.
    """
    s = np.sign(u)
    nonzero = np.nonzero(s)[0]
    if len(nonzero) == 0:
        raise FrontlabError("field is identically zero; no front")
    signs = s[nonzero]
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(changes) != 1:
        raise FrontlabError(f"expected exactly one sign change, found {len(changes)}")
    i = nonzero[changes[0]]
    j = nonzero[changes[0] + 1]
    if j == i + 1:
        return float(x[i] - u[i] * (x[j] - x[i]) / (u[j] - u[i]))
    return float(0.5 * (x[i + 1] + x[j - 1]))  # midpoint of the zero run


def freezing_speed(u_old: np.ndarray, u_new: np.ndarray, dt: float,
                   h: float) -> float:
    """Instantaneous speed from the translation-direction projection.

    Projects the one-step increment onto d_x U; the sign convention makes a
    rightward-moving front report positive speed.
    """
    du_dx = np.gradient(u_new, h)
    increment = (u_new - u_old) / dt
    denom = float(np.dot(du_dx, du_dx))
    if denom == 0.0:
        return 0.0
    return -float(np.dot(du_dx, increment)) / denom


@dataclass
class SimResult:
    t: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    trapping_violated: bool
    aborted: str | None
    final_state: PdeState


def simulate(state: PdeState, t_end: float, output_stride: int = 10,
             dt: float | None = None) -> SimResult:
    """March the PDE with first-order IMEX steps, logging front position,
    freezing speed and sup bounds.

    Aborts (with partial output) when the front reaches within 2 sqrt(eps)
    of the boundary.  A sup-norm excursion outside [-1.3, 1.3] is flagged,
    not fatal.
    """
    if dt is None:
        dt = default_dt(state.params)
    grid = state.grid
    nodes = grid.x
    front_position(state.u, nodes)   # validates the single-front shape
    margin = grid.half_length - 2.0 * math.sqrt(state.params.epsilon)
    system = _FrontSystem(state.params, state.coupling, grid)
    x, t = system.flat(state), state.t

    n_steps = int(round(t_end / dt))
    ts, pos, spd, sup_u, sup_v = [], [], [], [], []
    trapping = False
    aborted = None
    for istep in range(1, n_steps + 1):
        prev_u = x[:grid.n_x]
        x, t = system.advance(x, t, dt)
        if istep % output_stride == 0 or istep == n_steps:
            u, v = system.split(x)
            try:
                p = front_position(u, nodes)
            except FrontlabError:
                aborted = "front count changed"
                break
            su, sv = float(np.max(np.abs(u))), float(np.max(np.abs(v)))
            trapping = trapping or su > 1.3 or sv > 1.3
            ts.append(t)
            pos.append(p)
            spd.append(freezing_speed(prev_u, u, dt, grid.h))
            sup_u.append(su)
            sup_v.append(sv)
            if abs(p) > margin:
                aborted = "front reached boundary margin"
                break
    return SimResult(t=np.asarray(ts), position=np.asarray(pos),
                     speed=np.asarray(spd), sup_u=np.asarray(sup_u),
                     sup_v=np.asarray(sup_v), trapping_violated=trapping,
                     aborted=aborted, final_state=system.state(x, t))


# -- the discretized system ----------------------------------------------------

def _neumann_stencils(n_x: int, h: float):
    """(sub, main, super)-diagonals of the mirrored-ghost Laplacian D2 and
    of the centered first derivative D1, which has no main diagonal and
    which the mirrored ghosts zero at both boundary nodes."""
    inv, coef = 1.0 / (h * h), 1.0 / (2.0 * h)
    d2 = (np.full(n_x - 1, inv), np.full(n_x, -2.0 * inv), np.full(n_x - 1, inv))
    d2[0][-1] = d2[2][0] = 2.0 * inv      # the ghost mirrors
    d1 = (np.full(n_x - 1, -coef), None, np.full(n_x - 1, coef))
    d1[0][-1] = d1[2][0] = 0.0
    return d2, d1


def _apply_rows(X, lower, diag, upper):
    """A tridiagonal stencil applied to every row of X, summed from zero in
    column order as a CSR row product is, so the two agree bit for bit."""
    out = np.zeros_like(X)
    out[:, 1:] += lower * X[:, :-1]
    if diag is not None:
        out += diag * X
    out[:, :-1] += upper * X[:, 1:]
    return out


@functools.lru_cache(maxsize=8)
def _shared_store(params: SystemParams, grid: Grid) -> dict:
    """The patterns, layouts and factors all systems on (params, grid) share."""
    return {}


def _csc_layout(shape, groups):
    """Sorted CSC structure holding every (rows, cols) group of entries.

    Returns indptr, indices and, for each group, the positions of its
    entries in the data array.
    """
    rows = np.concatenate([r for r, _c in groups])
    cols = np.concatenate([c for _r, c in groups])
    order = np.lexsort((rows, cols))
    where = np.empty(len(order), dtype=np.intp)
    where[order] = np.arange(len(order))
    indptr = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    bounds = np.cumsum([0] + [len(r) for r, _c in groups])
    return (indptr, rows[order].astype(np.int32),
            [where[a:b] for a, b in zip(bounds[:-1], bounds[1:])])


@dataclass(frozen=True)
class _JacobianPattern:
    """CSC structure of the comoving Jacobian with its coupling-free values.

    `static` holds the diffusion D2 blocks and the linear reaction blocks,
    `d1` the raw D1 values; each stored value's row block (0 for U, j + 1
    for V_j) picks its advection and, in the dynamic Jacobian, its mass.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    static: np.ndarray
    d1: np.ndarray
    row_block: np.ndarray
    uu: np.ndarray             # positions of the U-U diagonal
    uv: np.ndarray             # (N, n_x) positions of the U-V_j diagonals
    pin_row: np.ndarray        # positions in the center node's U row
    pin_diag: int


def _jacobian_pattern(system: "_FrontSystem") -> _JacobianPattern:
    nx, n = system.nx, system.n
    size = system.size
    i = np.arange(nx)
    tri_rows = np.concatenate([i[1:], i, i[:-1]])
    tri_cols = np.concatenate([i[:-1], i, i[1:]])
    on_diag = slice(nx - 1, 2 * nx - 1)
    d2 = np.concatenate(system.d2_bands)
    d1 = np.concatenate([system.d1_bands[0], np.zeros(nx), system.d1_bands[2]])

    groups = [(tri_rows, tri_cols)]
    for j in range(n):
        off = (j + 1) * nx
        groups += [(i, off + i), (off + i, i), (off + tri_rows, off + tri_cols)]
    indptr, indices, pos = _csc_layout((size, size), groups)
    static = np.zeros(len(indices))
    d1_vals = np.zeros(len(indices))
    static[pos[0]] = system.diffusion[0] * d2
    d1_vals[pos[0]] = d1
    for j in range(n):
        _uv, vu, vv = pos[1 + 3 * j:4 + 3 * j]
        static[vu] = system.eps2
        block = system.diffusion[j + 1] * d2
        block[on_diag] -= system.eps2
        static[vv] = block
        d1_vals[vv] = d1
    row_block = indices // nx
    uu = pos[0][on_diag]
    return _JacobianPattern(
        shape=(size, size), indptr=indptr, indices=indices, static=static,
        d1=d1_vals, row_block=row_block, uu=uu,
        uv=np.stack([pos[1 + 3 * j] for j in range(n)]),
        pin_row=np.flatnonzero(indices == system.center),
        pin_diag=int(uu[system.center]))


@dataclass(frozen=True)
class _BorderLayout:
    """Positions of J, the phase row, the extra columns and the arclength
    row in the CSC data of a bordered matrix."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    jac: np.ndarray
    phase: np.ndarray
    columns: np.ndarray
    arc: np.ndarray | None


def _border_layout(pat: _JacobianPattern, center: int, n_cols: int,
                   with_arc: bool) -> _BorderLayout:
    size = pat.shape[0]
    jac_cols = np.repeat(np.arange(size), np.diff(pat.indptr))
    shape = (size + 1 + with_arc, size + n_cols)
    extra_cols = np.repeat(size + np.arange(n_cols), size)
    groups = [(pat.indices, jac_cols), (np.array([size]), np.array([center])),
              (np.tile(np.arange(size), n_cols), extra_cols)]
    if with_arc:
        groups.append((np.full(shape[1], size + 1), np.arange(shape[1])))
    indptr, indices, pos = _csc_layout(shape, groups)
    return _BorderLayout(shape=shape, indptr=indptr, indices=indices, jac=pos[0],
                         phase=pos[1], columns=pos[2],
                         arc=pos[3] if with_arc else None)


def _csc(data, layout):
    # fresh index arrays, so that no caller can alter the cached ones
    return sp.csc_matrix((data, layout.indices.copy(), layout.indptr.copy()),
                         shape=layout.shape)


class _FrontSystem:
    """The discretized system, the one place that knows the discretization.

    The fields are one flat vector (U, V_1, ..., V_N), an (N+1, n_x) array
    of rows.  On the Neumann stencils D2 and D1, in the frame moving at
    eps^2 c, row k reads

        mass_k dX_k/dt = diffusion_k D2 X_k + eps^2 c mass_k D1 X_k + reaction_k(X)

    with diffusion eps^2 (1, d_j^2), mass (1, tau_j) and reaction
    (U - U^3 - eps F(V), eps^2 (U - V_j)).  `residual` is the right-hand
    side; `advance` steps it in time at c = 0, solving the implicit
    diffusion with W (I - k D2), which the trapezoid weights W = diag(1/2,
    1, ..., 1, 1/2) make symmetric positive definite; `jacobian` and its
    pinned, bordered and dynamic forms feed Newton, spectra and
    continuation.  What depends only on (params, grid), the Jacobian
    pattern, the bordered layouts and the implicit-diffusion factors, is
    built on first use and shared by every system on them; `with_coupling`
    gives a view at another coupling.
    """

    def __init__(self, params: SystemParams, coupling: Coupling, grid: Grid):
        self.params = params
        self.coupling = coupling
        self.grid = grid
        self.nx = grid.n_x
        self.n = params.n_slow
        self.center = self.nx // 2
        self.eps2 = params.epsilon ** 2
        self.diffusion = self.eps2 * np.concatenate([[1.0], np.asarray(params.d) ** 2])
        self.mass = np.concatenate([[1.0], params.tau])
        self.d2_bands, self.d1_bands = _neumann_stencils(self.nx, grid.h)
        self._layouts = _shared_store(params, grid)

    def with_coupling(self, coupling: Coupling) -> "_FrontSystem":
        view = copy.copy(self)
        view.coupling = coupling
        return view

    @property
    def size(self):
        return (self.n + 1) * self.nx

    def split(self, x):
        return x[:self.nx], x[self.nx:].reshape(self.n, self.nx)

    def flat(self, state: PdeState) -> np.ndarray:
        return np.concatenate([state.u, state.v.ravel()])

    def state(self, x, t: float = 0.0) -> PdeState:
        u, v = self.split(x)
        return PdeState(t=t, u=u.copy(), v=v.copy(), params=self.params,
                        coupling=self.coupling, grid=self.grid)

    def _rows(self, x):
        return x.reshape(self.n + 1, self.nx)

    def _advection(self, c):
        return self.eps2 * c * self.mass

    def reaction(self, X, out):
        """Add the reaction rows of the (N+1, n_x) fields X to `out` term by
        term, so that a residual starting from its stencil rows rounds as
        the written-out sum does, and return `out`."""
        u, v = X[0], X[1:]
        out[0] += u
        out[0] -= u * u * u
        out[0] -= self.params.epsilon * eval_coupling(self.coupling, v)
        out[1:] += self.eps2 * (u - v)
        return out

    def residual(self, x, c):
        X = self._rows(x)
        out = self.diffusion[:, None] * _apply_rows(X, *self.d2_bands) \
            + self._advection(c)[:, None] * _apply_rows(X, *self.d1_bands)
        return self.reaction(X, out).ravel()

    def residual_c_derivative(self, x):
        return (self._advection(1.0)[:, None]
                * _apply_rows(self._rows(x), *self.d1_bands)).ravel()

    def residual_param_derivative(self, x, name):
        """dR/dp for the coupling parameter `name`; only the U rows are
        touched.  F is affine in p, so dF/dp is F of the coupling whose only
        nonzero entry is p = 1."""
        _u, v = self.split(x)
        zero = Coupling(0.0, (0.0,) * self.n, (0.0,) * self.n)
        du = -self.params.epsilon * eval_coupling(zero.with_param(name, 1.0), v)
        return np.concatenate([du, np.zeros(self.n * self.nx)])

    # -- time stepping on the flat vector

    def _implicit(self, scale):
        """k = scale diffusion_k / mass_k per row and the LDL^T factors of
        the block-diagonal W (I - k D2) on the flat vector; the last pair is
        kept.  Under W = diag(1/2, 1, ..., 1, 1/2) the ghost mirrors' 2/h^2
        halve to the interior -k/h^2 off-diagonal, so every row's matrix is
        symmetric; rows meet with a zero off-diagonal."""
        cached = self._layouts.get("implicit")
        if cached is None or cached[0] != scale:
            k = (scale * (self.diffusion / self.mass))[:, None]
            lower, diag, _upper = self.d2_bands
            main = 1.0 - k * diag
            main[:, [0, -1]] *= 0.5                # the weights W
            off = np.zeros_like(main)              # zero where rows meet
            off[:, :-1] = -k * lower[0]            # lower[0] = 1/h^2
            d, e, info = dpttrf(main.ravel(), off.ravel()[:-1])
            if info != 0:
                raise FrontlabError(
                    f"implicit diffusion matrix is not positive definite (scale {scale})")
            cached = self._layouts["implicit"] = (scale, k, (d, e))
        return cached[1:]

    def _rate(self, X):
        return self.reaction(X, np.zeros_like(X)) / self.mass[:, None]

    def _heun(self, X, step_len):
        r1 = self._rate(X)
        r2 = self._rate(X + step_len * r1)
        return X + 0.5 * step_len * (r1 + r2)

    def advance(self, x, t, dt, strang=False):
        """March the flat fields x from time t by dt; returns (x, t).  First
        order: explicit reaction, then implicit diffusion; `strang`: Heun
        reaction half steps around a Crank-Nicolson diffusion step.  The
        diffusion solve weights the right-hand side like `_implicit`'s
        matrix, halving each row's end values.  Steps above the
        explicit-reaction bound are split into equal substeps."""
        n_sub = max(1, int(math.ceil(dt / stable_reaction_dt(self.params))))
        sub = dt / n_sub
        half = 0.5 * sub
        k, factors = self._implicit(half if strang else sub)
        X = self._rows(x)
        for _ in range(n_sub):
            if strang:
                X = self._heun(X, half)
                rhs = X + k * _apply_rows(X, *self.d2_bands)
            else:
                rhs = X + sub * self._rate(X)
            rhs[:, [0, -1]] *= 0.5
            X = self._rows(dpttrs(*factors, rhs.ravel(), overwrite_b=1)[0])
            if strang:
                X = self._heun(X, half)
            t = t + sub
        return X.ravel(), t

    # -- Jacobians

    def _pattern(self) -> _JacobianPattern:
        if "jacobian" not in self._layouts:
            self._layouts["jacobian"] = _jacobian_pattern(self)
        return self._layouts["jacobian"]

    def jacobian(self, x, c):
        pat = self._pattern()
        u, v = self.split(x)
        data = pat.static + self._advection(c)[pat.row_block] * pat.d1
        data[pat.uu] += 1.0 - 3.0 * u ** 2
        data[pat.uv] = -self.params.epsilon * coupling_gradient(self.coupling, v)
        return _csc(data, pat)

    def pinned_jacobian(self, x, c):
        """Jacobian with the center U equation traded for the pin U = 0."""
        pat = self._pattern()
        jac = self.jacobian(x, c)
        jac.data[pat.pin_row] = 0.0
        jac.data[pat.pin_diag] = 1.0
        return jac

    def bordered(self, jac, columns, arc=None):
        """[[J, B], [e_center, 0], [arc]] for J = `jacobian(...)`.

        `columns` are B's columns (each of length `size`); the optional dense
        `arc` row has length size + len(columns).
        """
        key = (len(columns), arc is not None)
        if key not in self._layouts:
            self._layouts[key] = _border_layout(self._pattern(), self.center, *key)
        layout = self._layouts[key]
        data = np.empty(len(layout.indices))
        data[layout.jac] = jac.data
        data[layout.phase] = 1.0
        data[layout.columns] = np.concatenate(columns)
        if arc is not None:
            data[layout.arc] = arc
        return _csc(data, layout)

    def dynamic_jacobian(self, x, c):
        """Jacobian of the time-dependent system (V_j rows divided by tau_j)."""
        jac = self.jacobian(x, c)
        jac.data /= self.mass[self._pattern().row_block]
        return jac


@dataclass
class FrontSolution:
    state: PdeState
    c: float
    residual: float
    iterations: int
    converged: bool
    dropped_equation_residual: float = 0.0

    @property
    def lab_speed(self) -> float:
        """Speed in laboratory units, eps^2 * c."""
        return self.state.params.epsilon ** 2 * self.c


def _newton(residual, matrix, w, tol, max_iter):
    """Damped Newton on residual(w) = 0 with Jacobian matrix(w); returns (w,
    sup norm of residual(w), residual checks, converged).  A step is halved,
    down to 2**-14, until the norm drops, and its residual is reused; a step
    that no halving makes drop, a singular matrix or a non-finite iterate
    ends the iteration unconverged at the last accepted iterate."""
    r = residual(w)
    norm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return w, norm, it, True
        if not (math.isfinite(norm) and np.all(np.isfinite(w))):
            break
        jac = matrix(w)
        try:
            delta = splu(jac).solve(-r)
        except RuntimeError:    # exactly singular
            break
        for halvings in range(15):
            trial = w + 0.5 ** halvings * delta
            r = residual(trial)
            if np.max(np.abs(r)) < norm:
                break
        else:                   # stagnated
            break
        w, norm = trial, float(np.max(np.abs(r)))
    return w, norm, it, False


def _front_newton(system, residual, matrix, w, tol, max_iter, kind):
    """`_newton` from w = (profile[, c]) to a FrontSolution at c = w[size]
    (0 if absent), or a ConvergenceError carrying the last iterate."""
    w, norm, its, ok = _newton(residual, matrix, w, tol, max_iter)
    state = system.state(w[:system.size])
    if not ok:
        raise ConvergenceError(
            f"{kind} Newton stalled at residual {norm:.3e} after {its} iterations",
            best=state, diagnostics={"residual": norm})
    c = float(w[system.size]) if w.size > system.size else 0.0
    return FrontSolution(state=state, c=c, residual=norm, iterations=its, converged=True)


def solve_stationary_front(params: SystemParams, coupling: Coupling,
                           grid: Grid | None = None) -> FrontSolution:
    """Damped Newton for the steady front from the leading-order profile, the
    center U equation traded for the pin U(0) = 0, to a residual sup norm of
    1e-10 in at most 40 iterations.  `dropped_equation_residual` is the traded
    equation's residual, zero only where a stationary front exists (gamma ~ 0)."""
    if grid is None:
        grid = _default_grid(params)
    system = _FrontSystem(params, coupling, grid)
    ic = system.center

    def residual(x):
        r = system.residual(x, 0.0)
        r[ic] = x[ic]
        return r

    x = system.flat(initial_front_state(params, coupling, grid))
    sol = _front_newton(system, residual, lambda x: system.pinned_jacobian(x, 0.0),
                        x, 1e-10, 40, "stationary")
    sol.dropped_equation_residual = abs(system.residual(system.flat(sol.state), 0.0)[ic])
    return sol


def solve_travelling_front(params: SystemParams, coupling: Coupling,
                           guess: PdeState | None = None, guess_c: float = 0.0,
                           grid: Grid | None = None,
                           res_tol: float = 1e-10) -> FrontSolution:
    """Extended Newton in (profile, c) with the phase condition appended, at
    most 60 iterations."""
    if grid is None:
        grid = guess.grid if guess is not None else _default_grid(params)
    system = _FrontSystem(params, coupling, grid)

    def residual(w):
        return np.append(system.residual(w[:-1], w[-1]), w[system.center])

    def matrix(w):
        return system.bordered(system.jacobian(w[:-1], w[-1]),
                               [system.residual_c_derivative(w[:-1])])

    seed = guess if guess is not None else initial_front_state(
        params, coupling, grid, c=guess_c)
    return _front_newton(system, residual, matrix,
                         np.append(system.flat(seed), float(guess_c)), res_tol, 60,
                         "travelling")


def _default_nx(params, half_length):
    target_h = params.epsilon / 2.0
    return max(3, int(math.ceil(2.0 * half_length / target_h)) + 1)


def _default_grid(params):
    return make_grid(20.0, _default_nx(params, 20.0), params.epsilon)


# -- linearization spectra ------------------------------------------------------

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray      # real part descending, then imaginary part
    translation_eigenvalue: complex
    method: str

    def nontrivial(self) -> np.ndarray:
        """The eigenvalues, in order, with the translation mode removed."""
        return np.delete(self.eigenvalues, int(np.argmin(np.abs(self.eigenvalues))))


def linearization_spectrum(solution: FrontSolution, count: int = 8,
                           method: str = "auto") -> SpectrumReport:
    """The `count` eigenvalues of the discrete linearization nearest zero.

    `sparse` is shift-invert Arnoldi (ARPACK) near the origin and needs
    count + 6 < size - 1; `dense` computes the whole spectrum, the
    reference.  `auto` is `sparse` wherever ARPACK can run, else `dense`.
    Conjugate pairs are exact and the order (real part descending, ties by
    imaginary part descending) does not follow rounding.  The eigenvalue
    nearest zero is tagged as the translation mode.
    """
    state = solution.state
    system = _FrontSystem(state.params, state.coupling, state.grid)
    jac = system.dynamic_jacobian(system.flat(state), solution.c)
    size = jac.shape[0]
    arpack_ok = count + 6 < size - 1
    if method == "auto":
        method = "sparse" if arpack_ok else "dense"
    if count < 1 or (method == "sparse" and not arpack_ok):
        raise FrontlabError(f"{method} spectrum needs count >= 1 (sparse: count + 6 < "
                            f"size - 1), got count={count}, size={size}")
    if method == "dense":
        vals = np.linalg.eigvals(jac.toarray())
    elif method == "sparse":
        # Shift off the real axis at the essential-gap scale: sigma = 0 sits
        # on the (near-singular) translation eigenvalue and poisons the
        # factorized solves ARPACK relies on.
        gap = state.params.epsilon ** 2 * min(1.0 / t for t in state.params.tau)
        sigma = 0.5 * gap * complex(0.3722, 0.9282)
        vals = _conjugate_pairs(sparse_eigs(jac.astype(complex), k=count + 6, sigma=sigma,
                                            return_eigenvectors=False, tol=1e-12,
                                            v0=np.ones(size)))  # deterministic start
    else:
        raise FrontlabError(f"unknown eigensolver method {method!r}")
    near = vals[np.lexsort((-vals.imag, np.abs(vals)))[:count]]
    near = near[np.lexsort((-near.imag, -near.real))]
    return SpectrumReport(eigenvalues=near,
                          translation_eigenvalue=complex(near[np.argmin(np.abs(near))]),
                          method=method)


def _conjugate_pairs(vals):
    """The symmetry of a real operator, which the one-sided complex shift
    loses at rounding level: near-real values become real, and each pair
    becomes exactly conjugate."""
    vals = np.where(np.abs(vals.imag) < 1e-12 * np.maximum(1.0, np.abs(vals)),
                    vals.real, vals)
    for i in np.nonzero(vals.imag > 0)[0]:
        j = int(np.argmin(np.abs(vals - np.conj(vals[i]))))
        if abs(vals[j] - np.conj(vals[i])) < vals[i].imag:
            mean = 0.5 * (vals[i] + np.conj(vals[j]))
            vals[i], vals[j] = mean, np.conj(mean)
    return vals


# -- pseudo-arclength continuation ----------------------------------------------

@dataclass
class BranchPoint:
    param: float
    c: float
    state: PdeState
    eigenvalues: tuple
    stable: bool
    tag: str                   # 'none' | 'fold' | 'hopf'

    @property
    def leading_pair_real(self):
        # genuine pairs have |Im| at the eps^2-spectral scale; 1e-8 screens
        # out arithmetic noise on real eigenvalues
        pairs = [z for z in self.eigenvalues if abs(z.imag) > 1e-8]
        if not pairs:
            return None
        return max(z.real for z in pairs)


def continue_branch(params: SystemParams, coupling: Coupling, free_param: str,
                    prange, ds: float, grid: Grid | None = None,
                    max_points: int = 200, n_eigs: int = 8,
                    guess_c: float = 0.0, direction: float = 1.0) -> list:
    """Pseudo-arclength continuation of travelling fronts in one parameter.

    Secant predictor with a bordered Newton corrector in (profile, c, p),
    with steps between 1e-6 and 4 ds; every accepted point carries the
    n_eigs eigenvalues of `linearization_spectrum`.  Folds are tagged by a
    sign change of the parameter's arclength derivative, Hopf candidates by
    a complex pair's real part changing sign between accepted points.
    Newton solves stop at BRANCH_RES_TOL.  The branch is truncated (and the
    truncation reported in a warning) if the corrector fails at the
    minimum step.
    """
    p_lo, p_hi = float(min(prange)), float(max(prange))
    p0 = coupling.param(free_param)
    if not p_lo <= p0 <= p_hi:
        raise FrontlabError(f"starting parameter {p0} outside range [{p_lo}, {p_hi}]")
    if grid is None:
        grid = _default_grid(params)

    def solve_at(p_val, guess_state, c_guess):
        coup = coupling.with_param(free_param, p_val)
        return solve_travelling_front(params, coup, guess=guess_state,
                                      guess_c=c_guess, grid=grid,
                                      res_tol=BRANCH_RES_TOL)

    sol0 = solve_at(p0, None, guess_c)
    points = [_branch_point(sol0, p0, n_eigs)]

    # second point by a small natural-parameter step for the secant direction
    dp0 = direction * max(1e-4 * max(1.0, abs(p_hi - p_lo)), 10 * ds / 50.0)
    try:
        sol1 = solve_at(p0 + dp0, sol0.state, sol0.c)
    except ConvergenceError:
        dp0 = -dp0
        sol1 = solve_at(p0 + dp0, sol0.state, sol0.c)
    points.append(_branch_point(sol1, p0 + dp0, n_eigs))

    system = _FrontSystem(params, coupling, grid)
    nx1 = system.size

    def pack(sol, p_val):
        return np.concatenate([system.flat(sol.state), [sol.c, p_val]])

    w_prev = pack(sol0, p0)
    w_cur = pack(sol1, p0 + dp0)
    step_len = ds
    profile_weight = 1.0 / math.sqrt(nx1)

    def norm_w(dw):
        return math.sqrt(profile_weight ** 2 * float(np.dot(dw[:nx1], dw[:nx1]))
                         + dw[nx1] ** 2 + dw[nx1 + 1] ** 2)

    truncated = None
    while len(points) < max_points:
        tangent = w_cur - w_prev
        tn = norm_w(tangent)
        if tn == 0.0:
            truncated = "zero tangent"
            break
        tangent /= tn
        pred = w_cur + step_len * tangent
        corrected = _bordered_correct(system, free_param, pred, tangent, w_cur,
                                      step_len, profile_weight)
        if corrected is None:
            if step_len <= 1e-6:
                truncated = "corrector failed at minimum step"
                break
            step_len = max(1e-6, 0.5 * step_len)
            continue
        w_prev, w_cur = w_cur, corrected
        step_len = min(4.0 * ds, 1.15 * step_len)
        p_val = w_cur[-1]
        c_val = w_cur[-2]
        at_p = system.with_coupling(coupling.with_param(free_param, p_val))
        state = at_p.state(w_cur[:nx1])
        sol = FrontSolution(state=state, c=float(c_val), residual=0.0,
                            iterations=0, converged=True)
        points.append(_branch_point(sol, float(p_val), n_eigs))
        if not p_lo <= p_val <= p_hi:
            break

    _tag_folds(points)
    _tag_hopfs(points)
    if truncated:
        warnings.warn(f"branch truncated: {truncated}", stacklevel=2)
    return points


def _branch_point(sol: FrontSolution, p_val: float, n_eigs: int) -> BranchPoint:
    spec = linearization_spectrum(sol, count=n_eigs)
    return BranchPoint(param=float(p_val), c=float(sol.c), state=sol.state,
                       eigenvalues=tuple(spec.eigenvalues),
                       stable=bool(np.all(spec.nontrivial().real < 1e-10)), tag="none")


def _bordered_correct(system, free_param, w, tangent, w_old, step_len,
                      profile_weight):
    """Newton in (profile, c, p) with the phase and arclength rows from the
    predictor w, at most 12 iterations to BRANCH_RES_TOL; None on failure."""
    nx1 = system.size
    arc_row = np.concatenate([profile_weight ** 2 * tangent[:nx1],
                              [tangent[nx1], tangent[nx1 + 1]]])

    def at(w):
        return system.with_coupling(system.coupling.with_param(free_param, w[nx1 + 1]))

    def residual(w):
        arc = (profile_weight ** 2 * float(np.dot(tangent[:nx1], w[:nx1] - w_old[:nx1]))
               + tangent[nx1] * (w[nx1] - w_old[nx1])
               + tangent[nx1 + 1] * (w[nx1 + 1] - w_old[nx1 + 1]) - step_len)
        return np.concatenate([at(w).residual(w[:nx1], w[nx1]), [w[system.center], arc]])

    def matrix(w):
        at_p, x = at(w), w[:nx1]
        return at_p.bordered(at_p.jacobian(x, w[nx1]),
                             [at_p.residual_c_derivative(x),
                              at_p.residual_param_derivative(x, free_param)], arc_row)

    w, _norm, _its, ok = _newton(residual, matrix, w, BRANCH_RES_TOL, 12)
    return w if ok else None


def _tag_folds(points):
    for i in range(1, len(points) - 1):
        before = points[i].param - points[i - 1].param
        after = points[i + 1].param - points[i].param
        if before * after < 0:
            points[i].tag = "fold"


def _tag_hopfs(points):
    for i in range(1, len(points)):
        a = points[i - 1].leading_pair_real
        b = points[i].leading_pair_real
        if a is None or b is None:
            continue
        if a * b < 0 and points[i].tag == "none":
            points[i].tag = "hopf"
