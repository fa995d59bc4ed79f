"""Direct solver for the (N+1)-component fast/slow reaction-diffusion system.

Method of lines on a uniform grid with homogeneous Neumann boundaries:
IMEX time stepping (implicit tridiagonal diffusion, explicit reaction
with optional Strang splitting), freezing-based speed extraction, damped
Newton solvers for stationary and travelling fronts with a phase condition,
pseudo-arclength continuation with fold/Hopf detection, and linearization
spectra for cross-validation against the Evans-function predictions.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import eigs as sparse_eigs
from scipy.sparse.linalg import splu

from .core_model import Coupling, SystemParams, coupling_gradient, eval_coupling
from .errors import ConvergenceError, FrontlabError
from .existence import front_profile
from .jordan_chain import ChainProfile

#: Above this many unknowns the eigensolver switches to shift-invert Arnoldi.
DENSE_EIG_LIMIT = 4000


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

    def sup_bounds(self):
        return float(np.max(np.abs(self.u))), float(np.max(np.abs(self.v)))

    def within_box(self, r: float) -> bool:
        su, sv = self.sup_bounds()
        return su <= r and sv <= r

    def copy(self):
        return replace(self, u=self.u.copy(), v=self.v.copy())


def initial_front_state(params: SystemParams, coupling: Coupling, grid: Grid,
                        c: float = 0.0, smooth: bool = True) -> PdeState:
    """Seed state from the leading-order front profile at speed c.

    With `smooth` the interface tanh is used globally and the slow fields are
    matched at y = 0 (where both exponential branches equal the plateau
    value), avoiding the O(sqrt(eps)) seams of the piecewise profile; Newton
    then converges in a few steps.
    """
    grid.check_resolves(params.epsilon)
    prof = front_profile(params, coupling, c, residual_tol=np.inf)
    x = grid.x
    if smooth:
        u = np.tanh(x / (math.sqrt(2.0) * params.epsilon))
        v = np.empty((params.n_slow, grid.n_x))
        for j in range(1, params.n_slow + 1):
            vs = prof.v_star[j - 1]
            lp = prof.lambda_plus[j - 1]
            lm = prof.lambda_minus[j - 1]
            left = (vs + 1.0) * np.exp(lp * x) - 1.0
            right = (vs - 1.0) * np.exp(lm * x) + 1.0
            v[j - 1] = np.where(x < 0, left, right)
    else:
        u = prof.u(x)
        v = np.stack([prof.v(j, x) for j in range(1, params.n_slow + 1)])
    return PdeState(t=0.0, u=u, v=v, params=params, coupling=coupling, grid=grid)


def perturb_with_profile(state: PdeState, profile: ChainProfile,
                         amplitude: float) -> PdeState:
    """Add an eigenfunction-shaped perturbation (rescaled to unit sup norm)."""
    x = state.grid.x
    du = np.real(np.asarray(profile.u(x), dtype=complex))
    dv = np.stack([np.real(np.asarray(profile.v(j, x), dtype=complex))
                   for j in range(1, state.params.n_slow + 1)])
    scale = max(np.max(np.abs(du)), np.max(np.abs(dv)))
    out = state.copy()
    out.u = out.u + amplitude * du / scale
    out.v = out.v + amplitude * dv / scale
    return out


def perturb_with_bump(state: PdeState, amplitude: float, width: float = 1.0,
                      center: float = 0.0) -> PdeState:
    x = state.grid.x
    bump = amplitude * np.exp(-((x - center) / width) ** 2)
    out = state.copy()
    out.u = out.u + bump
    return out


# -- discrete operators --------------------------------------------------------

def _neumann_d2_banded(n_x: int, h: float):
    """Banded (1,1) representation of the mirrored-ghost Laplacian."""
    inv = 1.0 / (h * h)
    upper = np.full(n_x, inv)
    lower = np.full(n_x, inv)
    diag = np.full(n_x, -2.0 * inv)
    upper[1] = 2.0 * inv    # ghost mirror at the left boundary node
    lower[-2] = 2.0 * inv   # and at the right
    return upper, diag, lower


def neumann_d2(n_x: int, h: float) -> sp.csr_matrix:
    upper, diag, lower = _neumann_d2_banded(n_x, h)
    return sp.diags([lower[:-1], diag, upper[1:]], offsets=(-1, 0, 1),
                    format="csr")


def _neumann_d1_bands(n_x: int, h: float):
    """Super- and sub-diagonal of the centered first derivative.

    The mirrored ghosts zero it at both boundary nodes.
    """
    coef = 1.0 / (2.0 * h)
    upper = np.full(n_x - 1, coef)
    lower = np.full(n_x - 1, -coef)
    upper[0] = 0.0
    lower[-1] = 0.0
    return upper, lower


def neumann_d1(n_x: int, h: float) -> sp.csr_matrix:
    """Centered first derivative; mirrored ghosts zero it at the boundary."""
    upper, lower = _neumann_d1_bands(n_x, h)
    return sp.diags([lower, upper], offsets=(-1, 1), format="csr")


def _solve_implicit(coeff: float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve (I - coeff * D2) x = rhs with the Neumann tridiagonal."""
    n = len(rhs)
    upper, diag, lower = _neumann_d2_banded(n, h)
    ab = np.zeros((3, n))
    ab[0, 1:] = -coeff * upper[1:]
    ab[1] = 1.0 - coeff * diag
    ab[2, :-1] = -coeff * lower[:-1]
    return solve_banded((1, 1), ab, rhs)


def reaction_terms(state: PdeState):
    """Explicit reaction parts: (U - U^3 - eps F(V), eps^2 (U - V_j)/tau_j)."""
    p, coup = state.params, state.coupling
    f_of_v = eval_coupling(coup, state.v)
    ru = state.u - state.u ** 3 - p.epsilon * f_of_v
    rv = p.epsilon ** 2 * (state.u[None, :] - state.v) \
        / np.asarray(p.tau)[:, None]
    return ru, rv


def stable_reaction_dt(params: SystemParams) -> float:
    """Explicit-reaction step bound: 0.5 / max(2, eps^2 / min tau)."""
    return 0.5 / max(2.0, params.epsilon ** 2 / min(params.tau))


def default_dt(params: SystemParams) -> float:
    return 1e-2 * min(1.0, min(params.tau))


def step(state: PdeState, dt: float, strang: bool = False) -> PdeState:
    """Advance one IMEX step (first order; `strang` enables second order).

    Diffusion is implicit via tridiagonal solves, reactions explicit; steps
    exceeding the explicit-reaction stability bound are sub-stepped.
    """
    if dt <= 0:
        raise FrontlabError("dt must be positive")
    dt_max = stable_reaction_dt(state.params)
    n_sub = max(1, int(math.ceil(dt / dt_max)))
    sub = dt / n_sub
    out = state.copy()
    for _ in range(n_sub):
        out = _step_once(out, sub, strang)
    return out


def _diffusion_coefficients(params: SystemParams):
    eps2 = params.epsilon ** 2
    return eps2, eps2 * np.asarray(params.d) ** 2 / np.asarray(params.tau)


def _step_once(state: PdeState, dt: float, strang: bool) -> PdeState:
    h = state.grid.h
    cu, cv = _diffusion_coefficients(state.params)
    if not strang:
        ru, rv = reaction_terms(state)
        u_new = _solve_implicit(dt * cu, state.u + dt * ru, h)
        v_new = np.empty_like(state.v)
        for j in range(state.params.n_slow):
            v_new[j] = _solve_implicit(dt * cv[j], state.v[j] + dt * rv[j], h)
        return replace(state, t=state.t + dt, u=u_new, v=v_new)

    # Strang: half reaction (Heun), full Crank-Nicolson diffusion, half reaction
    half = 0.5 * dt

    def _react(st, step_len):
        r1u, r1v = reaction_terms(st)
        pred = replace(st, u=st.u + step_len * r1u, v=st.v + step_len * r1v)
        r2u, r2v = reaction_terms(pred)
        return replace(st, u=st.u + 0.5 * step_len * (r1u + r2u),
                       v=st.v + 0.5 * step_len * (r1v + r2v))

    mid = _react(state, half)
    d2 = neumann_d2(state.grid.n_x, h)
    u_new = _solve_implicit(0.5 * dt * cu, mid.u + 0.5 * dt * cu * (d2 @ mid.u), h)
    v_new = np.empty_like(mid.v)
    for j in range(state.params.n_slow):
        v_new[j] = _solve_implicit(0.5 * dt * cv[j],
                                   mid.v[j] + 0.5 * dt * cv[j] * (d2 @ mid.v[j]), h)
    out = replace(mid, u=u_new, v=v_new)
    out = _react(out, half)
    return replace(out, t=state.t + dt)


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
             dt: float | None = None, trap_radius: float = 1.3,
             strang: bool = False) -> SimResult:
    """March the PDE, logging front position, freezing speed and sup bounds.

    Aborts (with partial output) when the front reaches within 2 sqrt(eps)
    of the boundary.  A sup-norm excursion outside [-trap_radius,
    trap_radius] is flagged, not fatal.
    """
    if dt is None:
        dt = default_dt(state.params)
    front_position(state.u, state.grid.x)   # validates the single-front shape
    margin = state.grid.half_length - 2.0 * math.sqrt(state.params.epsilon)

    n_steps = int(round(t_end / dt))
    ts, pos, spd, sup_u, sup_v = [], [], [], [], []
    trapping = False
    aborted = None
    current = state
    for istep in range(1, n_steps + 1):
        prev_u = current.u
        current = step(current, dt, strang=strang)
        if istep % output_stride == 0 or istep == n_steps:
            try:
                p = front_position(current.u, current.grid.x)
            except FrontlabError:
                aborted = "front count changed"
                break
            su, sv = current.sup_bounds()
            trapping = trapping or su > trap_radius or sv > trap_radius
            ts.append(current.t)
            pos.append(p)
            spd.append(freezing_speed(prev_u, current.u, dt, current.grid.h))
            sup_u.append(su)
            sup_v.append(sv)
            if abs(p) > margin:
                aborted = "front reached boundary margin"
                break
    return SimResult(t=np.asarray(ts), position=np.asarray(pos),
                     speed=np.asarray(spd), sup_u=np.asarray(sup_u),
                     sup_v=np.asarray(sup_v), trapping_violated=trapping,
                     aborted=aborted, final_state=current)


# -- steady solvers -------------------------------------------------------------

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

    `static` holds the eps^2 D2 blocks and the identity blocks, `d1` the raw
    D1 values; each stored value's row block (0 for U, j + 1 for V_j) picks
    its c-scale and, in the dynamic Jacobian, its divisor 1 or tau_j.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    static: np.ndarray
    d1: np.ndarray
    row_block: np.ndarray
    row_tau: np.ndarray
    uu: np.ndarray             # positions of the U-U diagonal
    uv: np.ndarray             # (N, n_x) positions of the U-V_j diagonals
    pin_row: np.ndarray        # positions in the center node's U row
    pin_diag: int


def _jacobian_pattern(params: SystemParams, grid: Grid) -> _JacobianPattern:
    nx, n = grid.n_x, params.n_slow
    eps2 = params.epsilon ** 2
    size = (n + 1) * nx
    i = np.arange(nx)
    tri_rows = np.concatenate([i[1:], i, i[:-1]])
    tri_cols = np.concatenate([i[:-1], i, i[1:]])
    on_diag = slice(nx - 1, 2 * nx - 1)
    d2_up, d2_diag, d2_lo = _neumann_d2_banded(nx, grid.h)
    d2 = np.concatenate([d2_lo[:-1], d2_diag, d2_up[1:]])
    d1_up, d1_lo = _neumann_d1_bands(nx, grid.h)
    d1 = np.concatenate([d1_lo, np.zeros(nx), d1_up])

    groups = [(tri_rows, tri_cols)]
    for j in range(n):
        off = (j + 1) * nx
        groups += [(i, off + i), (off + i, i), (off + tri_rows, off + tri_cols)]
    indptr, indices, pos = _csc_layout((size, size), groups)
    static = np.zeros(len(indices))
    d1_vals = np.zeros(len(indices))
    static[pos[0]] = eps2 * d2
    d1_vals[pos[0]] = d1
    for j in range(n):
        _uv, vu, vv = pos[1 + 3 * j:4 + 3 * j]
        static[vu] = eps2
        block = eps2 * params.d[j] ** 2 * d2
        block[on_diag] -= eps2
        static[vv] = block
        d1_vals[vv] = d1
    row_block = indices // nx
    row_tau = np.concatenate([[1.0], params.tau])[row_block]
    uu = pos[0][on_diag]
    center = nx // 2
    return _JacobianPattern(
        shape=(size, size), indptr=indptr, indices=indices, static=static,
        d1=d1_vals, row_block=row_block, row_tau=row_tau, uu=uu,
        uv=np.stack([pos[1 + 3 * j] for j in range(n)]),
        pin_row=np.flatnonzero(indices == center), pin_diag=int(uu[center]))


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
    """Discretized comoving steady system and its sparse Jacobian.

    The CSC pattern of the Jacobian and its coupling-free values are built
    on first use and cached per (params, grid); the coupling only enters
    the values.  `with_coupling` gives a view at another coupling that
    shares the cache, so every matrix assembly after the first only writes
    values.
    """

    def __init__(self, params: SystemParams, coupling: Coupling, grid: Grid):
        self.params = params
        self.coupling = coupling
        self.grid = grid
        self.nx = grid.n_x
        self.n = params.n_slow
        self.d2 = neumann_d2(self.nx, grid.h)
        self.d1 = neumann_d1(self.nx, grid.h)
        self.center = self.nx // 2
        self._layouts = {}

    def with_coupling(self, coupling: Coupling) -> "_FrontSystem":
        view = copy.copy(self)
        view.coupling = coupling
        return view

    @property
    def size(self):
        return (self.n + 1) * self.nx

    def split(self, x):
        u = x[:self.nx]
        v = x[self.nx:].reshape(self.n, self.nx)
        return u, v

    def residual(self, x, c):
        p = self.params
        eps = p.epsilon
        u, v = self.split(x)
        f_of_v = eval_coupling(self.coupling, v)
        ru = eps ** 2 * (self.d2 @ u) + eps ** 2 * c * (self.d1 @ u) \
            + u - u ** 3 - eps * f_of_v
        out = [ru]
        for j in range(self.n):
            out.append(eps ** 2 * p.d[j] ** 2 * (self.d2 @ v[j])
                       + eps ** 2 * c * p.tau[j] * (self.d1 @ v[j])
                       + eps ** 2 * (u - v[j]))
        return np.concatenate(out)

    def _pattern(self) -> _JacobianPattern:
        if "jacobian" not in self._layouts:
            self._layouts["jacobian"] = _jacobian_pattern(self.params, self.grid)
        return self._layouts["jacobian"]

    def jacobian(self, x, c):
        pat = self._pattern()
        eps = self.params.epsilon
        u, v = self.split(x)
        c_scale = np.array([eps ** 2 * c] + [eps ** 2 * c * t for t in self.params.tau])
        data = pat.static + c_scale[pat.row_block] * pat.d1
        data[pat.uu] += 1.0 - 3.0 * u ** 2
        data[pat.uv] = -eps * coupling_gradient(self.coupling, v)
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

    def residual_c_derivative(self, x):
        p = self.params
        eps = p.epsilon
        u, v = self.split(x)
        out = [eps ** 2 * (self.d1 @ u)]
        for j in range(self.n):
            out.append(eps ** 2 * p.tau[j] * (self.d1 @ v[j]))
        return np.concatenate(out)

    def residual_param_derivative(self, x, name):
        """dR/dp for the coupling parameter `name`; only the U rows are
        touched.  F is affine in p, so dF/dp is F of the coupling whose only
        nonzero entry is p = 1."""
        _u, v = self.split(x)
        zero = Coupling(0.0, (0.0,) * self.n, (0.0,) * self.n)
        du = -self.params.epsilon * eval_coupling(zero.with_param(name, 1.0), v)
        return np.concatenate([du, np.zeros(self.n * self.nx)])

    def dynamic_jacobian(self, x, c):
        """Jacobian of the time-dependent system (V_j rows divided by tau_j)."""
        jac = self.jacobian(x, c)
        jac.data /= self._pattern().row_tau
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


def _damped_newton(system, x0, c, res_tol, max_iter, mode, c0=0.0):
    """Shared damped-Newton core for the pinned and extended systems.

    mode 'stationary': unknown x, the center U equation traded for U = 0.
    mode 'travelling': unknowns (x, c), phase appended.
    """
    ic = system.center
    x = x0.copy()
    c = float(c0 if mode == "travelling" else c)

    def pinned_residual(x):
        r = system.residual(x, c)
        r = r.copy()
        r[ic] = x[ic]
        return r

    for it in range(1, max_iter + 1):
        if mode == "stationary":
            r = pinned_residual(x)
            norm = float(np.max(np.abs(r)))
            if norm <= res_tol:
                full = system.residual(x, c)
                return x, c, norm, it, True, abs(full[ic])
            delta = splu(system.pinned_jacobian(x, c)).solve(-r)
            damping = 1.0
            while damping > 1e-4:
                cand = x + damping * delta
                if np.max(np.abs(pinned_residual(cand))) < norm or damping <= 1e-4:
                    break
                damping *= 0.5
            x = x + damping * delta
        else:
            r = np.append(system.residual(x, c), x[ic])
            norm = float(np.max(np.abs(r)))
            if norm <= res_tol:
                return x, c, norm, it, True, 0.0
            big = system.bordered(system.jacobian(x, c),
                                  [system.residual_c_derivative(x)])
            delta = splu(big).solve(-r)
            damping = 1.0
            while damping > 1e-4:
                cand_x = x + damping * delta[:-1]
                cand_c = c + damping * delta[-1]
                cand_r = np.append(system.residual(cand_x, cand_c), cand_x[ic])
                if np.max(np.abs(cand_r)) < norm or damping <= 1e-4:
                    break
                damping *= 0.5
            x = x + damping * delta[:-1]
            c = c + damping * delta[-1]
    final = np.max(np.abs(system.residual(x, c)))
    return x, c, float(final), max_iter, False, 0.0


def _state_from_vector(system, x, params, coupling, grid):
    u, v = system.split(x)
    return PdeState(t=0.0, u=u.copy(), v=v.copy(), params=params,
                    coupling=coupling, grid=grid)


def solve_stationary_front(params: SystemParams, coupling: Coupling,
                           grid: Grid | None = None, guess: PdeState | None = None,
                           res_tol: float = 1e-10, max_iter: int = 40) -> FrontSolution:
    """Damped Newton for the steady front with the pinning U(0) = 0.

    The center U equation is traded for the pin; its residual at the solution
    is reported separately (it vanishes only when a stationary front truly
    exists, i.e. for gamma near zero).
    """
    if grid is None:
        grid = guess.grid if guess is not None else make_grid(
            20.0, _default_nx(params, 20.0), params.epsilon)
    system = _FrontSystem(params, coupling, grid)
    seed = guess if guess is not None else initial_front_state(params, coupling, grid)
    x0 = np.concatenate([seed.u, seed.v.ravel()])
    x, _c, norm, its, ok, dropped = _damped_newton(
        system, x0, 0.0, res_tol, max_iter, "stationary")
    if not ok:
        raise ConvergenceError(
            f"stationary Newton stalled at residual {norm:.3e} after {its} iterations",
            best=_state_from_vector(system, x, params, coupling, grid),
            diagnostics={"residual": norm})
    return FrontSolution(state=_state_from_vector(system, x, params, coupling, grid),
                         c=0.0, residual=norm, iterations=its, converged=ok,
                         dropped_equation_residual=dropped)


def solve_travelling_front(params: SystemParams, coupling: Coupling,
                           guess: PdeState | None = None, guess_c: float = 0.0,
                           grid: Grid | None = None, res_tol: float = 1e-10,
                           max_iter: int = 60) -> FrontSolution:
    """Extended Newton in (profile, c) with the phase condition appended."""
    if grid is None:
        grid = guess.grid if guess is not None else make_grid(
            20.0, _default_nx(params, 20.0), params.epsilon)
    system = _FrontSystem(params, coupling, grid)
    seed = guess if guess is not None else initial_front_state(
        params, coupling, grid, c=guess_c)
    x0 = np.concatenate([seed.u, seed.v.ravel()])
    x, c, norm, its, ok, _ = _damped_newton(
        system, x0, None, res_tol, max_iter, "travelling", c0=guess_c)
    if not ok:
        raise ConvergenceError(
            f"travelling Newton stalled at residual {norm:.3e} after {its} iterations",
            best=_state_from_vector(system, x, params, coupling, grid),
            diagnostics={"residual": norm, "c": c})
    return FrontSolution(state=_state_from_vector(system, x, params, coupling, grid),
                         c=float(c), residual=norm, iterations=its, converged=ok)


def _default_nx(params, half_length):
    target_h = params.epsilon / 2.0
    return max(3, int(math.ceil(2.0 * half_length / target_h)) + 1)


# -- linearization spectra ------------------------------------------------------

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray      # sorted by real part, descending
    translation_eigenvalue: complex
    method: str

    def leading_nontrivial(self):
        """Most critical eigenvalue once the translation mode is removed."""
        idx = int(np.argmin(np.abs(self.eigenvalues - self.translation_eigenvalue)))
        rest = np.delete(self.eigenvalues, idx)
        return rest[int(np.argmax(rest.real))]


def linearization_spectrum(solution: FrontSolution, count: int = 8,
                           method: str = "auto") -> SpectrumReport:
    """Eigenvalues of the discrete linearization nearest zero.

    Dense solve when the system has at most DENSE_EIG_LIMIT unknowns,
    otherwise shift-invert Arnoldi at the origin.  The near-zero translation
    eigenvalue is tagged in the report.
    """
    state = solution.state
    system = _FrontSystem(state.params, state.coupling, state.grid)
    x = np.concatenate([state.u, state.v.ravel()])
    jac = system.dynamic_jacobian(x, solution.c)
    size = jac.shape[0]
    if method == "auto":
        method = "dense" if size <= DENSE_EIG_LIMIT else "sparse"
    if method == "dense":
        eigs_all = np.linalg.eigvals(jac.toarray())
        order = np.argsort(np.abs(eigs_all))
        eigs_near = eigs_all[order[:count]]
    elif method == "sparse":
        # Shift off the real axis at the essential-gap scale: sigma = 0 sits
        # on the (near-singular) translation eigenvalue and poisons the
        # factorized solves ARPACK relies on.
        gap = state.params.epsilon ** 2 * min(1.0 / t for t in state.params.tau)
        sigma = 0.5 * gap * complex(0.3722, 0.9282)
        v0 = np.ones(jac.shape[0])  # deterministic Arnoldi start
        vals = sparse_eigs(jac.astype(complex), k=count + 6, sigma=sigma,
                           return_eigenvectors=False, tol=1e-12, v0=v0)
        vals = vals[np.argsort(np.abs(vals))][:count]
        # the operator is real: tidy conjugate-pair symmetry lost to the
        # one-sided complex shift
        eigs_near = np.where(np.abs(vals.imag) < 1e-12 * np.maximum(1.0, np.abs(vals)),
                             vals.real, vals)
    else:
        raise FrontlabError(f"unknown eigensolver method {method!r}")
    eigs_near = eigs_near[np.argsort(-eigs_near.real)]
    translation = eigs_near[int(np.argmin(np.abs(eigs_near)))]
    return SpectrumReport(eigenvalues=eigs_near,
                          translation_eigenvalue=complex(translation),
                          method=method)


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
                    res_tol: float = 1e-9, ds_min: float = 1e-6,
                    ds_max: float | None = None, guess_c: float = 0.0,
                    compute_spectra: bool = True,
                    direction: float = 1.0) -> list:
    """Pseudo-arclength continuation of travelling fronts in one parameter.

    Secant predictor with a bordered Newton corrector in (profile, c, p);
    folds are tagged by a sign change of the parameter's arclength
    derivative, Hopf candidates by a complex pair's real part changing sign
    between accepted points.  The branch is truncated (and the truncation
    reported on the last point) if the corrector fails at ds_min.
    """
    p_lo, p_hi = float(min(prange)), float(max(prange))
    p0 = coupling.param(free_param)
    if not p_lo <= p0 <= p_hi:
        raise FrontlabError(f"starting parameter {p0} outside range [{p_lo}, {p_hi}]")
    if grid is None:
        grid = make_grid(20.0, _default_nx(params, 20.0), params.epsilon)
    if ds_max is None:
        ds_max = 4.0 * ds

    def solve_at(p_val, guess_state, c_guess):
        coup = coupling.with_param(free_param, p_val)
        return solve_travelling_front(params, coup, guess=guess_state,
                                      guess_c=c_guess, grid=grid,
                                      res_tol=res_tol)

    sol0 = solve_at(p0, None, guess_c)
    points = [_branch_point(sol0, p0, n_eigs, compute_spectra)]

    # second point by a small natural-parameter step for the secant direction
    dp0 = direction * max(1e-4 * max(1.0, abs(p_hi - p_lo)), 10 * ds / 50.0)
    try:
        sol1 = solve_at(p0 + dp0, sol0.state, sol0.c)
    except ConvergenceError:
        dp0 = -dp0
        sol1 = solve_at(p0 + dp0, sol0.state, sol0.c)
    points.append(_branch_point(sol1, p0 + dp0, n_eigs, compute_spectra))

    system = _FrontSystem(params, coupling, grid)
    nx1 = system.size

    def pack(sol, p_val):
        return np.concatenate([sol.state.u, sol.state.v.ravel(),
                               [sol.c], [p_val]])

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
                                      step_len, profile_weight, res_tol)
        if corrected is None:
            if step_len <= ds_min:
                truncated = "corrector failed at minimum step"
                break
            step_len = max(ds_min, 0.5 * step_len)
            continue
        w_prev, w_cur = w_cur, corrected
        step_len = min(ds_max, 1.15 * step_len)
        p_val = w_cur[-1]
        c_val = w_cur[-2]
        coup = coupling.with_param(free_param, p_val)
        state = _state_from_vector(system, w_cur[:nx1], params, coup, grid)
        sol = FrontSolution(state=state, c=float(c_val), residual=0.0,
                            iterations=0, converged=True)
        points.append(_branch_point(sol, float(p_val), n_eigs, compute_spectra))
        if not p_lo <= p_val <= p_hi:
            break

    _tag_folds(points)
    if compute_spectra:
        _tag_hopfs(points)
    if truncated:
        warnings.warn(f"branch truncated: {truncated}", stacklevel=2)
    return points


def _branch_point(sol: FrontSolution, p_val: float, n_eigs: int,
                  compute_spectra: bool) -> BranchPoint:
    if compute_spectra:
        spec = linearization_spectrum(sol, count=n_eigs)
        eigs = tuple(spec.eigenvalues)
        translation = spec.translation_eigenvalue
        others = [z for z in eigs if z != translation]
        stable = all(z.real < 1e-10 for z in others)
    else:
        eigs, stable = (), False
    return BranchPoint(param=float(p_val), c=float(sol.c), state=sol.state,
                       eigenvalues=eigs, stable=stable, tag="none")


def _bordered_correct(system, free_param, w, tangent, w_old, step_len,
                      profile_weight, res_tol, max_iter=12):
    nx1 = system.size
    for _ in range(max_iter):
        x, c, p = w[:nx1], w[nx1], w[nx1 + 1]
        at_p = system.with_coupling(system.coupling.with_param(free_param, p))
        r = at_p.residual(x, c)
        phase = x[system.center]
        arc = (profile_weight ** 2 * float(np.dot(tangent[:nx1], w[:nx1] - w_old[:nx1]))
               + tangent[nx1] * (w[nx1] - w_old[nx1])
               + tangent[nx1 + 1] * (w[nx1 + 1] - w_old[nx1 + 1]) - step_len)
        big_r = np.concatenate([r, [phase, arc]])
        if np.max(np.abs(big_r)) <= res_tol:
            return w
        arc_row = np.concatenate([profile_weight ** 2 * tangent[:nx1],
                                  [tangent[nx1], tangent[nx1 + 1]]])
        big = at_p.bordered(at_p.jacobian(x, c),
                            [at_p.residual_c_derivative(x),
                             at_p.residual_param_derivative(x, free_param)], arc_row)
        try:
            delta = splu(big).solve(-big_r)
        except RuntimeError:
            return None
        w = w + delta
        if not np.all(np.isfinite(w)):
            return None
    return None


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
