"""Direct solver for the (N+1)-component fast/slow reaction-diffusion system.

Method of lines on a uniform grid with homogeneous Neumann boundaries.  One
discretized system, `_FrontSystem`, holds the (N+1, n_x) layout, the
Neumann stencils, the per-row diffusion, advection and mass coefficients
and the reaction rows, and every solver runs on it: IMEX time stepping
(implicit diffusion by a symmetric LDL^T tridiagonal solve, explicit
reaction) with freezing-based speed extraction, damped Newton solvers for
stationary and travelling fronts with a phase condition, pseudo-arclength
continuation with fold/Hopf detection, and linearization spectra for
cross-validation against the Evans-function predictions.

The Jacobian is assembled in one packing, a LAPACK band on the
node-interleaved order: every Newton step is one band LU with the phase and
arclength borders eliminated through a small Schur system, every spectrum
one band LU of J - sigma M at a real shift for ARPACK's shift-invert
Arnoldi in real arithmetic, and the dense reference spectrum of small
systems unpacks the same band.
"""

from __future__ import annotations

import copy
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, eigs as sparse_eigs

from .core_model import (REAL_IMAG_TOL, Coupling, SystemParams, conjugate_pairs,
                         coupling_gradient, eval_coupling)
from .errors import ConvergenceError, FrontlabError
from .existence import front_profile
from .jordan_chain import ChainProfile

#: Residual sup norm at which the continuation's Newton solves stop.
BRANCH_RES_TOL = 1e-9

#: Most IMEX substeps one `simulate` or `step` call may take; the cusp runs
#: of criteria 6-7 take 42,000.
MAX_SUBSTEPS = 10 ** 7


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


def _step_count(params: SystemParams, t_end: float, dt: float, inputs: str) -> int:
    """round(t_end / dt), after checking dt, t_end and that the steps take at
    most MAX_SUBSTEPS substeps as `_FrontSystem.advance` splits them."""
    if not (math.isfinite(dt) and dt > 0):
        raise FrontlabError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise FrontlabError(f"t_end must be finite and >= 0, got {t_end!r}")
    steps = round(min(t_end / dt, MAX_SUBSTEPS + 1.0))
    per_step = min(dt / stable_reaction_dt(params), MAX_SUBSTEPS + 1.0)
    if steps * max(1, math.ceil(per_step)) > MAX_SUBSTEPS:
        raise FrontlabError(f"{inputs} would take more than {MAX_SUBSTEPS:,} IMEX substeps")
    return steps


def step(state: PdeState, dt: float) -> PdeState:
    """Advance one first-order IMEX step.

    Diffusion is implicit, each row solved with the LDL^T factors of its
    trapezoid-weighted symmetric matrix; reactions are explicit; steps
    exceeding the explicit-reaction stability bound are sub-stepped.
    """
    _step_count(state.params, dt, dt, f"dt={dt!r}")
    system = _FrontSystem(state.params, state.coupling, state.grid)
    x, t = system.advance(system.flat(state), state.t, dt, 1)
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
    not fatal.  More than MAX_SUBSTEPS substeps raise FrontlabError at once.
    """
    if dt is None:
        dt = default_dt(state.params)
    n_steps = _step_count(state.params, t_end, dt, f"t_end={t_end!r} and dt={dt!r}")
    if not isinstance(output_stride, (int, np.integer)) or output_stride < 1:
        raise FrontlabError(f"output_stride must be an integer >= 1, got {output_stride!r}")
    grid = state.grid
    nodes = grid.x
    front_position(state.u, nodes)   # validates the single-front shape
    margin = grid.half_length - 2.0 * math.sqrt(state.params.epsilon)
    system = _FrontSystem(state.params, state.coupling, grid)
    x, t = system.flat(state), state.t

    ts, pos, spd, sup_u, sup_v = [], [], [], [], []
    trapping = False
    aborted = None
    for done in range(0, n_steps, output_stride):
        x, t = system.advance(x, t, dt, min(output_stride, n_steps - done) - 1)
        prev_u = x[:grid.n_x]            # advance never writes its input
        x, t = system.advance(x, t, dt, 1)
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
    """The implicit-diffusion factors all systems on (params, grid) share."""
    return {}


class _FrontSystem:
    """The discretized system, the one place that knows the discretization.

    The fields are one flat vector (U, V_1, ..., V_N), an (N+1, n_x) array
    of rows.  On the Neumann stencils D2 and D1, in the frame moving at
    eps^2 c, row k reads

        mass_k dX_k/dt = diffusion_k D2 X_k + eps^2 c mass_k D1 X_k + reaction_k(X)

    with diffusion eps^2 (1, d_j^2), mass (1, tau_j) and reaction
    (U - U^3 - eps F(V), eps^2 (U - V_j)).  `residual` is the right-hand
    side; `advance` marches it a given number of steps at c = 0, solving
    the implicit diffusion with W (I - k D2), which the trapezoid weights
    W = diag(1/2, 1, ..., 1, 1/2) make symmetric positive definite.  The
    march builds each substep in place, in one of two buffers in turn, and
    never writes the caller's vector; its float operations are those of the
    written-out step, in the same order.  The Jacobian's entries are
    assembled by `band` alone, on the node-interleaved order: it feeds
    `newton_step`, the one linear solve of every Newton iteration,
    `shift_invert`, the operator of every sparse spectrum, and
    `dynamic_jacobian`, its dense unpacking for the dense spectrum.  The
    implicit-diffusion factors depend only on (params, grid), are built on
    first use and are shared by every system on them; `with_coupling` gives
    a view at another coupling.
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
        self._shared = _shared_store(params, grid)

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
        """The LDL^T factors of the block-diagonal W (I - k D2) on the flat
        vector, k = scale diffusion_k / mass_k per row; the last pair is
        kept.  Under W = diag(1/2, 1, ..., 1, 1/2) the ghost mirrors' 2/h^2
        halve to the interior -k/h^2 off-diagonal, so every row's matrix is
        symmetric; rows meet with a zero off-diagonal."""
        cached = self._shared.get("implicit")
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
            cached = self._shared["implicit"] = (scale, (d, e))
        return cached[1]

    def advance(self, x, t, dt, steps):
        """March the flat fields x from time t by `steps` steps of dt;
        returns (x, t).  First order: explicit reaction, then implicit
        diffusion.  The diffusion solve weights the right-hand side like
        `_implicit`'s matrix, halving each row's end values.  Steps above
        the explicit-reaction bound are split into equal substeps."""
        n_sub = max(1, int(math.ceil(dt / stable_reaction_dt(self.params))))
        sub = dt / n_sub
        d, e = self._implicit(sub)
        slow_mass = self.mass[1:, None]          # the U row's mass is 1
        X = self._rows(x)
        buffers = (np.empty_like(X), np.empty_like(X))
        for i in range(steps * n_sub):
            R = buffers[i % 2]
            R.fill(0.0)
            self.reaction(X, R)
            R[1:] /= slow_mass
            R *= sub
            R += X
            R[:, ::self.nx - 1] *= 0.5
            X = dpttrs(d, e, R.reshape(-1), overwrite_b=1)[0].reshape(X.shape)
            t = t + sub
        return X.ravel(), t

    # -- the Jacobian: one band packing

    def band(self, x, c):
        """The Jacobian at (x, c) in LAPACK's general band storage on the
        node-interleaved order (U, V_1, ..., V_N at node 0, then at node 1,
        ...), where kl = ku = N + 1: entry (I, J) sits at [2 kl + I - J, J],
        below the kl rows `dgbtrf` fills.  It holds each row block's (lower,
        main, upper) stencil plus reaction, the U-V_j coupling diagonals
        -eps dF/dV_j and the V_j-U constant eps^2."""
        u, v = self.split(x)
        diffusion, adv = self.diffusion[:, None], self._advection(c)[:, None]
        (d2_lower, d2_main, d2_upper), (d1_lower, _, d1_upper) = self.d2_bands, self.d1_bands
        main = diffusion * d2_main
        main[0] += 1.0 - 3.0 * u ** 2
        main[1:] -= self.eps2
        uv = -self.params.epsilon * coupling_gradient(self.coupling, v)
        m = self.n + 1
        ab = np.zeros((3 * m + 1, self.nx, m))
        ab[m, 1:] = (diffusion * d2_upper + adv * d1_upper).T
        ab[2 * m] = main.T
        ab[3 * m, :-1] = (diffusion * d2_lower + adv * d1_lower).T
        for j in range(1, m):
            ab[2 * m - j, :, j] = uv[j - 1]
            ab[2 * m + j, :, 0] = self.eps2
        return ab.reshape(3 * m + 1, self.size)

    def dynamic_jacobian(self, x, c):
        """The Jacobian of the time-dependent system, dense on the flat order
        (U, V_1, ..., V_N): `band` unpacked, each row divided by its mass."""
        m, size = self.n + 1, self.size
        ab, jac = self.band(x, c), np.zeros((size, size))
        flat = np.arange(size).reshape(m, self.nx).T.ravel()   # interleaved -> flat
        for offset in range(-m, m + 1):                         # J - I
            cols = np.arange(max(0, offset), size + min(0, offset))
            jac[flat[cols - offset], flat[cols]] = ab[2 * m - offset, cols]
        return jac / np.repeat(self.mass, self.nx)[:, None]

    def shift_invert(self, x, c, sigma):
        """The operator (J - sigma M)^-1 M at (x, c) on the node-interleaved
        order, M the row masses and sigma a real shift: its eigenvalues are
        1/(lambda - sigma) for the eigenvalues lambda of the time-dependent
        Jacobian M^-1 J, which the order does not change.  J - sigma M is
        the band with sigma M taken off its main row, factored once by
        `dgbtrf`; each product is one `dgbtrs` call.  Raises FrontlabError
        if J - sigma M is singular."""
        m, size = self.n + 1, self.size
        mass = np.tile(self.mass, self.nx)
        ab = self.band(x, c)
        ab[2 * m] -= sigma * mass
        lu, piv, info = dgbtrf(ab, m, m, overwrite_ab=1)
        if info > 0:
            raise FrontlabError(f"J - sigma M is singular at the spectrum shift sigma={sigma!r}")
        return LinearOperator((size, size), dtype=float, matvec=lambda v: dgbtrs(
            lu, m, m, mass * v.ravel(), piv, overwrite_b=1)[0])

    def newton_step(self, x, c, rhs, columns=(), arc=None):
        """Solve a front's Newton system at (x, c) for `rhs`.

        The matrix is the Jacobian J with its center U row traded for the
        pin e_center^T, bordered by the k = len(columns) columns B and by k
        rows: J's center U row with B's center entries, then the `arc` row
        (length size + k) if given.  With k = 0 it is the pinned J of the
        stationary solve; with k > 0 `rhs` holds the pin's entry at `size`
        and the center U row's at `center`.  The pinned band is factored by
        `dgbtrf`, one `dgbtrs` call solves it for rhs and B, and the k
        border unknowns come from a k x k Schur system (block elimination,
        Govaerts 2000, ch. 3).  Raises LinAlgError if the band or the Schur
        system is singular.
        """
        m, k, size, ic = self.n + 1, len(columns), self.size, self.center
        ab = self.band(x, c)
        pin = ic * m                              # the center U in the band order
        near = np.arange(pin - m, pin + m + 1)    # the columns of its row
        entries = (2 * m + pin - near, near)
        dropped = ab[entries]
        ab[entries] = 0.0
        ab[2 * m, pin] = 1.0
        lu, piv, info = dgbtrf(ab, m, m, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError("the pinned Jacobian is singular")
        b = np.column_stack([rhs[:size], *columns])
        if k:                                     # the pinned row is the phase row
            b[ic] = 0.0
            b[ic, 0] = rhs[size]
        width = k + 1
        z = dgbtrs(lu, m, m, b.reshape(m, self.nx, width).transpose(1, 0, 2)
                   .reshape(size, width), piv)[0]
        flat = z.reshape(self.nx, m, width).transpose(1, 0, 2).reshape(size, width)
        if not k:
            return flat[:, 0]
        rows, corner, target = [dropped @ z[near]], [[col[ic] for col in columns]], [rhs[ic]]
        if arc is not None:
            rows.append(arc[:size] @ flat)
            corner.append(arc[size:])
            target.append(rhs[size + 1])
        rows = np.array(rows)
        dy = np.linalg.solve(np.array(corner) - rows[:, 1:], np.array(target) - rows[:, 0])
        return np.concatenate([flat[:, 0] - flat[:, 1:] @ dy, dy])


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


def _newton(residual, solve, w, tol, max_iter):
    """Damped Newton on residual(w) = 0 with steps solve(w, -residual(w));
    returns (w, sup norm of residual(w), residual checks, reason).  A step
    is halved, down to 2**-14, until the norm drops, and its residual is
    reused.  The reason is "converged", or why the iteration ended
    unconverged at the last accepted iterate: "non_finite" iterate,
    "singular" matrix (solve raised LinAlgError), "stalled" when no halving
    makes the norm drop, or "max_iter"."""
    r = residual(w)
    norm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return w, norm, it, "converged"
        if not (math.isfinite(norm) and np.all(np.isfinite(w))):
            return w, norm, it, "non_finite"
        try:
            delta = solve(w, -r)
        except np.linalg.LinAlgError:
            return w, norm, it, "singular"
        for halvings in range(15):
            trial = w + 0.5 ** halvings * delta
            r = residual(trial)
            if np.max(np.abs(r)) < norm:
                break
        else:
            return w, norm, it, "stalled"
        w, norm = trial, float(np.max(np.abs(r)))
    return w, norm, it, "max_iter"


def _front_newton(system, residual, solve, w, tol, max_iter, kind):
    """`_newton` from w = (profile[, c]) to a FrontSolution at c = w[size]
    (0 if absent), or a ConvergenceError carrying the last iterate and, in
    its diagnostics, the residual and the reason it stopped."""
    w, norm, its, reason = _newton(residual, solve, w, tol, max_iter)
    state = system.state(w[:system.size])
    if reason != "converged":
        raise ConvergenceError(
            f"{kind} Newton stopped ({reason}) at residual {norm:.3e} after {its} iterations",
            best=state, diagnostics={"residual": norm, "reason": reason})
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
    sol = _front_newton(system, residual, lambda x, rhs: system.newton_step(x, 0.0, rhs),
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

    def solve(w, rhs):
        return system.newton_step(w[:-1], w[-1], rhs, [system.residual_c_derivative(w[:-1])])

    seed = guess if guess is not None else initial_front_state(
        params, coupling, grid, c=guess_c)
    return _front_newton(system, residual, solve,
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


def linearization_spectrum(solution: FrontSolution, count: int = 8) -> SpectrumReport:
    """The `count` eigenvalues of the discrete linearization nearest zero.

    Shift-invert Arnoldi (ARPACK) in real arithmetic, `method` "sparse",
    wherever ARPACK can run (count + 6 < size - 1): the count + 6
    eigenvalues nu of largest modulus of `shift_invert`'s (J - sigma M)^-1 M
    at a real shift sigma give the eigenvalues lambda = sigma + 1/nu
    nearest sigma.  Real Arnoldi returns real values with imaginary part 0
    and complex ones in exact conjugate pairs (Lehoucq, Sorensen and Yang,
    ARPACK Users' Guide, SIAM 1998, sec. 3.2).  Elsewhere the whole
    spectrum of the dense matrix, "dense".  On both paths conjugate pairs
    are exact and the order (real part descending, ties by imaginary part
    descending) does not follow rounding.  The eigenvalue nearest zero is
    tagged as the translation mode.
    """
    state = solution.state
    system = _FrontSystem(state.params, state.coupling, state.grid)
    x, size = system.flat(state), system.size
    if count < 1:
        raise FrontlabError(f"spectrum needs count >= 1, got count={count}")
    method = "sparse" if count + 6 < size - 1 else "dense"
    if method == "dense":
        vals = np.linalg.eigvals(system.dynamic_jacobian(x, solution.c))
    else:
        # A real shift at the essential-gap scale, off 0: sigma = 0 sits on
        # the (near-singular) translation eigenvalue and poisons the
        # factorized solves ARPACK relies on.  Real, so that J - sigma M is
        # a real band and every pair comes back exactly conjugate.
        gap = state.params.epsilon ** 2 * min(1.0 / t for t in state.params.tau)
        sigma = 0.5 * gap * 0.3722
        nu = sparse_eigs(system.shift_invert(x, solution.c, sigma), k=count + 6,
                         return_eigenvectors=False, tol=1e-12,
                         v0=np.ones(size))  # deterministic start
        vals = conjugate_pairs(sigma + 1.0 / nu)
    near = vals[np.lexsort((-vals.imag, np.abs(vals)))[:count]]
    near = near[np.lexsort((-near.imag, -near.real))]
    return SpectrumReport(eigenvalues=near,
                          translation_eigenvalue=complex(near[np.argmin(np.abs(near))]),
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
        # genuine pairs have |Im| at the eps^2-spectral scale, far above
        # the rounding noise on real eigenvalues
        pairs = [z for z in self.eigenvalues if abs(z.imag) > REAL_IMAG_TOL]
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
    if not (math.isfinite(ds) and ds > 0):
        raise FrontlabError(f"ds must be finite and > 0, got {ds!r}")
    if not (isinstance(max_points, (int, np.integer)) and max_points >= 2):
        raise FrontlabError(f"max_points must be an integer >= 2, got {max_points!r}")
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

    def solve(w, rhs):
        at_p, x = at(w), w[:nx1]
        return at_p.newton_step(x, w[nx1], rhs, [at_p.residual_c_derivative(x),
                                                 at_p.residual_param_derivative(x, free_param)],
                                arc_row)

    w, _norm, _its, reason = _newton(residual, solve, w, BRANCH_RES_TOL, 12)
    return w if reason == "converged" else None


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
