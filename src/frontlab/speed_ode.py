"""Reduced front-speed dynamics on the center manifold.

At a designed multiplicity-(N'+1) zero root the reduced ODE for the speed
vector c = (c_1, .., c_N') has nilpotent linear part plus a scalar
nonlinearity in the last row:

    dc_k/dt  = eps^2 c_{k+1},            k < N',
    dc_N'/dt = eps^2 (a_0 + sum_j a_j c_j + c_1 sum_j a1j c_j).

This module builds that ODE from the existence/Evans analysis, integrates
it, classifies equilibria (saddle-focus detection), shoots for homoclinic
connections over a coefficient sweep, and estimates Lyapunov exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core_model import Coupling, SystemParams, worker_count
from .designer import design_evans_degeneracy, linear_unfolding_map
from .errors import ConvergenceError, FrontlabError
from .existence import gamma0_taylor

BLOWUP_NORM = 1e8


def _solve_ivp(*args, **kwargs):
    # imported on first use: scipy.integrate pulls in scipy.optimize, which
    # would add ~0.25 s to every `import frontlab`
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class SpeedODE:
    """Nilpotent speed ODE with quadratic c_1-coupling in the last row."""

    n_prime: int
    a0: float
    a_lin: tuple
    a_quad: tuple
    epsilon: float
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n_prime < 1:
            raise FrontlabError("dimension must be >= 1")
        if len(self.a_lin) != self.n_prime or len(self.a_quad) != self.n_prime:
            raise FrontlabError("a_lin and a_quad must have n_prime entries")
        object.__setattr__(self, "a_lin", tuple(float(a) for a in self.a_lin))
        object.__setattr__(self, "a_quad", tuple(float(a) for a in self.a_quad))

    @property
    def dim(self):
        return self.n_prime

    def last_row(self, c):
        quad = c[0] * float(np.dot(self.a_quad, c))
        return self.a0 + float(np.dot(self.a_lin, c)) + quad

    def field_at(self, c):
        c = np.asarray(c, dtype=float)
        out = np.empty_like(c)
        out[:-1] = c[1:]
        out[-1] = self.last_row(c)
        return self.epsilon ** 2 * out

    def jacobian_at(self, c):
        c = np.asarray(c, dtype=float)
        n = self.n_prime
        jac = np.zeros((n, n))
        for k in range(n - 1):
            jac[k, k + 1] = 1.0
        row = np.asarray(self.a_lin) + c[0] * np.asarray(self.a_quad)
        row[0] += float(np.dot(self.a_quad, c))
        jac[-1, :] = row
        return self.epsilon ** 2 * jac

    def scalar_equilibrium_coeffs(self):
        """(a0, a1, a11) of the restriction to the c = (c, 0, .., 0) line."""
        return (self.a0, self.a_lin[0], self.a_quad[0])


@dataclass(frozen=True)
class ScaledNF:
    """Rescaled normal form: z_k' = z_{k+1}, z_N'' = nu0 + nu.z + quadratics.

    The last row is nu0 + sum_k nu_k z_k + a11 z1^2 + a12 delta z1 z2; in
    the saddle-focus normal form the z1-linear term has been shifted away,
    so nu = (0, mu_bar, nu_bar) and nu0 plays the role of lambda_bar.
    """

    nu0: float
    nu: tuple
    a11: float
    a12: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        if len(self.nu) < 1:
            raise FrontlabError("nu must have at least one entry")

    @classmethod
    def shilnikov(cls, lam_bar, mu_bar, nu_bar, a11, a12=0.0, delta=0.0,
                  normalize=False):
        """Three-dimensional form with (lambda_bar, mu_bar, nu_bar) data."""
        if normalize:
            norm = math.sqrt(lam_bar ** 2 + mu_bar ** 2 + nu_bar ** 2)
            if norm == 0.0:
                raise FrontlabError("cannot normalize the zero coefficient triple")
            lam_bar, mu_bar, nu_bar = lam_bar / norm, mu_bar / norm, nu_bar / norm
            check = math.sqrt(lam_bar ** 2 + mu_bar ** 2 + nu_bar ** 2)
            if abs(check - 1.0) > 1e-12:
                raise FrontlabError("normalization failed to reach unit norm")
        return cls(nu0=lam_bar, nu=(0.0, mu_bar, nu_bar), a11=a11, a12=a12,
                   delta=delta)

    @property
    def lam_bar(self):
        return self.nu0

    @property
    def mu_bar(self):
        return self.nu[1] if len(self.nu) >= 2 else 0.0

    @property
    def nu_bar(self):
        return self.nu[2] if len(self.nu) >= 3 else 0.0

    @property
    def dim(self):
        return len(self.nu)

    @property
    def epsilon(self):
        return 1.0   # already in slow time

    def last_row(self, z):
        out = self.nu0 + float(np.dot(self.nu, z)) + self.a11 * z[0] ** 2
        if len(z) >= 2:
            out += self.a12 * self.delta * z[0] * z[1]
        return out

    def field_at(self, z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        out[:-1] = z[1:]
        out[-1] = self.last_row(z)
        return out

    def jacobian_at(self, z):
        z = np.asarray(z, dtype=float)
        n = len(z)
        jac = np.zeros((n, n))
        for k in range(n - 1):
            jac[k, k + 1] = 1.0
        row = np.asarray(self.nu, dtype=float).copy()
        row[0] += 2.0 * self.a11 * z[0]
        if n >= 2:
            row[0] += self.a12 * self.delta * z[1]
            row[1] += self.a12 * self.delta * z[0]
        jac[-1, :] = row
        return jac

    def scalar_equilibrium_coeffs(self):
        return (self.nu0, self.nu[0], self.a11)


def build_from_analysis(params: SystemParams, coupling: Coupling,
                        n_prime: int, h: float) -> SpeedODE:
    """Speed ODE coefficients from the existence and Evans expansions.

    a_lin comes from the linear unfolding of the small Evans roots at the
    multiplicity-(n_prime+1) base point; a0 = h * gamma and
    a11 = h * (c^2-coefficient of the existence expansion).  The cross
    coefficients a1j for j >= 2 are not reachable at leading order and
    default to zero; `provenance` records which entries are analysis-derived.
    """
    if h <= 0:
        raise FrontlabError("the conjugation scale h must be positive")
    if n_prime > params.n_slow:
        raise FrontlabError(f"n_prime={n_prime} exceeds N={params.n_slow}")
    base = design_evans_degeneracy(params, n_prime)
    delta = np.asarray(coupling.alpha) - base
    abar = linear_unfolding_map(params, delta, ell=n_prime)
    taylor = gamma0_taylor(params, coupling, 2)
    a11 = h * taylor.coefficient(2)
    a_quad = (a11,) + (0.0,) * (n_prime - 1)
    provenance = {"a0": "analysis", "a_lin": "analysis", "a_quad[0]": "analysis"}
    for j in range(1, n_prime):
        provenance[f"a_quad[{j}]"] = "default-zero"
    return SpeedODE(n_prime=n_prime, a0=h * coupling.gamma,
                    a_lin=tuple(abar), a_quad=a_quad,
                    epsilon=params.epsilon, provenance=provenance)


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray            # shape (dim, len(t))
    blew_up: bool
    dense: object = None

    def __call__(self, t):
        if self.dense is None:
            raise FrontlabError("trajectory has no dense output")
        return self.dense(t)


def integrate(ode, initial, t_end: float, tol: float = 1e-8,
              t_eval=None, with_position: bool = False) -> Trajectory:
    """Adaptive RK45 trajectory of the speed ODE (or scaled normal form).

    Aborts on blow-up (state norm above 1e8) and returns the partial
    trajectory flagged.  With `with_position` a front-position coordinate a
    with da/dt = eps^2 c_1 is appended as the last row.
    """
    if tol <= 0:
        raise FrontlabError("tol must be positive")
    y0 = np.asarray(initial, dtype=float)
    if with_position:
        # the front position rides along as a last coordinate, da/dt = eps^2 c_1
        eps2 = ode.epsilon ** 2

        def rhs(_t, y):
            return np.append(ode.field_at(y[:-1]), eps2 * y[0])
    else:
        def rhs(_t, y):
            return ode.field_at(y)

    def blow_up(_t, y):
        return float(np.linalg.norm(y)) - BLOWUP_NORM
    blow_up.terminal = True

    sol = _solve_ivp(rhs, (0.0, float(t_end)), y0, method="RK45",
                     rtol=tol, atol=tol * 1e-2, dense_output=True,
                     t_eval=t_eval, events=blow_up)
    blew = bool(sol.t_events[0].size)
    return Trajectory(t=sol.t, y=sol.y, blew_up=blew, dense=sol.sol)


@dataclass(frozen=True)
class Equilibrium:
    c_star: float
    eigenvalues: tuple
    kind: str

    @property
    def state(self):
        n = len(self.eigenvalues)
        out = np.zeros(n)
        out[0] = self.c_star
        return out


def classify_eigenvalues(eigs, hyper_tol=1e-9) -> str:
    """Stability type from eigenvalues; saddle-focus labels in dimension 3."""
    eigs = np.asarray(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    re = eigs.real
    if np.any(np.abs(re) <= hyper_tol * scale):
        return "nonhyperbolic"
    n_unstable = int(np.sum(re > 0))
    if n_unstable == 0:
        return "sink"
    if n_unstable == len(eigs):
        return "source"
    if len(eigs) == 3:
        unstable = eigs[re > 0]
        stable = eigs[re < 0]
        if n_unstable == 1 and abs(unstable[0].imag) <= hyper_tol * scale \
                and np.max(np.abs(stable.imag)) > hyper_tol * scale:
            return "saddle-focus(1u,2s)"
        if n_unstable == 2 and np.max(np.abs(unstable.imag)) > hyper_tol * scale \
                and abs(stable[0].imag) <= hyper_tol * scale:
            return "saddle-focus(2u,1s)"
    return "saddle"


def equilibria_and_classification(ode, hyper_tol=1e-9):
    """Equilibria (c, 0, .., 0) of the last-row scalar equation, classified."""
    a0, a1, a11 = ode.scalar_equilibrium_coeffs()
    if a11 == 0.0:
        roots = [] if a1 == 0.0 else [-a0 / a1]
        if a1 == 0.0 and a0 == 0.0:
            roots = [0.0]  # a line of equilibria; report the origin
    else:
        disc = a1 * a1 - 4.0 * a11 * a0
        if disc < 0.0:
            roots = []
        elif disc == 0.0:
            roots = [-a1 / (2.0 * a11)]
        else:
            sq = math.sqrt(disc)
            roots = sorted([(-a1 - sq) / (2.0 * a11), (-a1 + sq) / (2.0 * a11)])
    out = []
    for c_star in roots:
        state = np.zeros(ode.dim)
        state[0] = c_star
        eigs = np.linalg.eigvals(ode.jacobian_at(state))
        eigs = tuple(sorted(eigs, key=lambda z: (-z.real, z.imag)))
        out.append(Equilibrium(c_star=float(c_star), eigenvalues=eigs,
                               kind=classify_eigenvalues(eigs, hyper_tol)))
    return out


# -- Shil'nikov shooting -------------------------------------------------------

@dataclass(frozen=True)
class ShootPoint:
    nu_bar: float
    miss: float
    status: str              # 'ok' | 'escape' | 'timeout' | 'no-saddle-focus'
    rho_s: float = math.nan  # saddle quantity -Re(stable pair)/unstable eig


@dataclass(frozen=True)
class ShootCandidate:
    nu_bar: float
    miss: float
    rho_s: float


@dataclass(frozen=True)
class ShootResult:
    candidates: tuple
    trace: tuple             # ShootPoint per sweep value
    branch_equilibria: tuple  # which equilibrium each seed branch approaches

    @property
    def has_sign_change(self) -> bool:
        ok = [p.miss for p in self.trace if p.status == "ok"]
        return any(_sign(a) * _sign(b) < 0 for a, b in zip(ok, ok[1:]))


def _sign(x):
    return (x > 0) - (x < 0)


def _saddle_focus_data(nf, hyper_tol=1e-9):
    """(equilibrium, other, lambda_u, v_u, w_u, rho_s) or None."""
    eqs = equilibria_and_classification(nf, hyper_tol)
    if len(eqs) != 2:
        return None
    focus = [e for e in eqs if e.kind == "saddle-focus(1u,2s)"]
    if not focus:
        return None
    eq = focus[0]
    other = eqs[0] if eqs[1] is eq else eqs[1]
    jac = nf.jacobian_at(eq.state)
    vals, vecs = np.linalg.eig(jac)
    iu = int(np.argmax(vals.real))
    lam_u = float(vals[iu].real)
    v_u = vecs[:, iu].real
    v_u /= np.linalg.norm(v_u)
    lvals, lvecs = np.linalg.eig(jac.T)
    ju = int(np.argmin(np.abs(lvals - vals[iu])))
    w_u = lvecs[:, ju].real
    stable_re = float(np.max([v.real for v in vals if v.real < 0]))
    rho_s = -stable_re / lam_u
    return eq, other, lam_u, v_u, w_u, rho_s


def _shoot_once(nf, tol, seed_offset=1e-6, t_max=400.0, integrator_tol=1e-10,
                hyper_tol=1e-9):
    """Miss distance for one coefficient set; see shilnikov_shoot."""
    data = _saddle_focus_data(nf, hyper_tol)
    if data is None:
        return ShootPoint(nu_bar=nf.nu_bar, miss=math.nan,
                          status="no-saddle-focus")
    eq, other, lam_u, v_u, w_u, rho_s = data
    p = eq.state
    q = other.state
    mid = 0.5 * (p + q)
    normal = q - p
    normal /= np.linalg.norm(normal)
    # seed the unstable branch toward the section between the equilibria;
    # the opposite branch leaves the quadratic trapping region immediately
    if np.dot(v_u, mid - p) < 0:
        v_u = -v_u
    y0 = p + seed_offset * v_u
    escape_radius = 10.0 * max(1.0, abs(eq.c_star))

    def section(_t, y):
        return float(np.dot(y - mid, normal))
    section.terminal = False
    section.direction = 0

    def escape(_t, y):
        return float(np.linalg.norm(y - p)) - escape_radius
    escape.terminal = True

    sol = _solve_ivp(lambda _t, y: nf.field_at(y), (0.0, t_max), y0,
                     method="RK45", rtol=integrator_tol,
                     atol=integrator_tol * 1e-2, events=(section, escape))
    # Crossing #1 is the outbound transit of the departing manifold; the
    # genuine first *return* to the section is crossing #2.
    if sol.t_events[0].size >= 2:
        x_c = sol.y_events[0][1]
        denom = np.dot(w_u, v_u)
        miss = float(np.dot(w_u, x_c - p) / denom)
        return ShootPoint(nu_bar=nf.nu_bar, miss=miss, status="ok", rho_s=rho_s)
    status = "escape" if sol.t_events[1].size else "timeout"
    return ShootPoint(nu_bar=nf.nu_bar, miss=math.nan, status=status, rho_s=rho_s)


def _branch_endpoints(nf, seed_offset=1e-6, t_max=400.0, integrator_tol=1e-8):
    """Which equilibrium each unstable-manifold branch ends up nearest."""
    data = _saddle_focus_data(nf)
    if data is None:
        return ()
    eq, other, _lam, v_u, _w, _rho = data
    out = []
    for sign in (+1.0, -1.0):
        y0 = eq.state + sign * seed_offset * v_u

        def escape(_t, y):
            return float(np.linalg.norm(y)) - BLOWUP_NORM
        escape.terminal = True
        sol = _solve_ivp(lambda _t, y: nf.field_at(y), (0.0, t_max), y0,
                         method="RK45", rtol=integrator_tol,
                         atol=integrator_tol * 1e-2, events=escape)
        yf = sol.y[:, -1]
        nearest = min((eq, other), key=lambda e: np.linalg.norm(yf - e.state))
        out.append((sign, nearest.c_star))
    return tuple(out)


def shilnikov_shoot(nf: ScaledNF, sweep, tol: float = 1e-6,
                    t_max: float = 400.0, integrator_tol: float = 1e-10,
                    max_bisect: int = 60) -> ShootResult:
    """Scan the z_3-coefficient for homoclinic connections to a saddle-focus.

    The necessary conditions a11*nu0 < 0 and mu_bar < 0 are enforced up
    front.  For each swept value the one-dimensional unstable manifold is
    integrated to its first return to the mid-plane between the equilibria;
    the signed miss distance is the unstable-eigenbasis coordinate of the
    return point.  Sign changes are bisected; returned candidates have
    |miss| < tol.  An empty candidate list always carries the full trace.
    """
    if nf.dim != 3:
        raise FrontlabError("shooting is defined for the three-dimensional form")
    if nf.a11 * nf.nu0 >= 0:
        raise FrontlabError(
            "necessary condition violated: need a11 * nu0 < 0 for the "
            "saddle-focus regime")
    if nf.mu_bar >= 0:
        raise FrontlabError("necessary condition violated: need mu_bar < 0")

    sweep = [float(s) for s in sweep]

    def at(nb):
        return replace(nf, nu=(nf.nu[0], nf.nu[1], nb))

    def shoot(nb):
        return _shoot_once(at(nb), tol, t_max=t_max,
                           integrator_tol=integrator_tol)

    workers = worker_count()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trace = list(pool.map(shoot, sweep))   # ordered, deterministic
    else:
        trace = [shoot(nb) for nb in sweep]
    if all(p.status == "no-saddle-focus" for p in trace):
        raise FrontlabError("no saddle-focus(1u,2s) equilibrium anywhere in the sweep")

    candidates = []
    for left, right in zip(trace, trace[1:]):
        if left.status != "ok" or right.status != "ok":
            continue
        if _sign(left.miss) * _sign(right.miss) >= 0:
            continue
        lo, hi = left.nu_bar, right.nu_bar
        flo = left.miss
        best = None
        for _ in range(max_bisect):
            midv = 0.5 * (lo + hi)
            pm = _shoot_once(at(midv), tol, t_max=t_max,
                             integrator_tol=integrator_tol)
            if pm.status != "ok":
                break
            best = pm
            if abs(pm.miss) < tol:
                break
            if _sign(pm.miss) == _sign(flo):
                lo = midv
                flo = pm.miss
            else:
                hi = midv
        if best is not None and abs(best.miss) < tol:
            candidates.append(ShootCandidate(nu_bar=best.nu_bar,
                                             miss=best.miss, rho_s=best.rho_s))
    branches = _branch_endpoints(at(sweep[len(sweep) // 2]))
    return ShootResult(candidates=tuple(candidates), trace=tuple(trace),
                       branch_equilibria=branches)


def lyapunov_max(ode, initial, t_end: float, renorm_interval: float,
                 tol: float = 1e-10, discard_fraction: float = 0.2,
                 seed: int = 0) -> float:
    """Largest Lyapunov exponent by tangent-space renormalization.

    Integrates state and tangent vector together, renormalizing the tangent
    every `renorm_interval`; the exponent is the mean log-growth per unit of
    the ODE's own time, with the leading transient chunks discarded.
    """
    if renorm_interval <= 0 or t_end <= renorm_interval:
        raise FrontlabError("need 0 < renorm_interval < t_end")
    rng = np.random.default_rng(seed)
    dim = len(np.asarray(initial))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    y = np.concatenate([np.asarray(initial, dtype=float), v])

    def rhs(_t, y_aug):
        x, w = y_aug[:dim], y_aug[dim:]
        return np.concatenate([ode.field_at(x), ode.jacobian_at(x) @ w])

    n_chunks = int(math.ceil(t_end / renorm_interval))
    logs = []
    for _ in range(n_chunks):
        sol = _solve_ivp(rhs, (0.0, renorm_interval), y, method="RK45",
                         rtol=tol, atol=tol * 1e-2)
        y = sol.y[:, -1]
        if np.linalg.norm(y[:dim]) > BLOWUP_NORM:
            raise ConvergenceError("trajectory blew up during exponent estimation")
        norm = np.linalg.norm(y[dim:])
        logs.append(math.log(norm))
        y[dim:] /= norm
    start = int(discard_fraction * len(logs))
    kept = logs[start:]
    return float(sum(kept) / (len(kept) * renorm_interval))
