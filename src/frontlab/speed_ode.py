"""Reduced front-speed dynamics on the center manifold.

At a designed multiplicity-(N'+1) zero root the speed vector obeys one
companion-form ODE, a nilpotent shift with a scalar nonlinearity in the last
row, z' = s (z_2, .., z_n, a0 + a.z + z_1 (q.z)).  `SpeedODE` is that ODE in
the speeds c, and `ScaledNF` the same ODE after the delta-rescaling of
Dumortier, Ibanez and Kokubu (Dyn. Syst. 16, 2001).

This module builds the speed ODE from the existence/Evans analysis,
integrates it, classifies equilibria (saddle-focus detection), shoots for
homoclinic connections and estimates Lyapunov exponents, all four kinds of
run (`integrate`, a shot, a branch run, `lyapunov_max`) taking the same
Taylor steps (`_CompanionForm.taylor`) through one march (`_march`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import add, mul

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core_model import Coupling, SystemParams, _require_finite
from .designer import design_evans_degeneracy, linear_unfolding_map
from .errors import ConvergenceError, FrontlabError
from .existence import gamma0_taylor

BLOWUP_NORM = 1e8

#: Order of the Taylor steps.  A step below STEP_FLOOR of the form's time
#: scale 1 / (|s| max(1, |a|, |q|)) is a blow-up; one run (`integrate`, a
#: shot, a branch run, or `lyapunov_max` over all its chunks) takes at most
#: MAX_TAYLOR_STEPS steps.
TAYLOR_ORDER = 20
STEP_FLOOR = 1e-12
MAX_TAYLOR_STEPS = 10 ** 5

#: Real parts (and, in the saddle-focus test, imaginary parts) within this
#: fraction of max(1, |eigenvalue|) count as zero.
HYPER_TOL = 1e-9

#: Distance from the saddle-focus at which unstable-manifold orbits start.
SEED_OFFSET = 1e-6


class _CompanionForm:
    """z' = s (z_2, .., z_n, a0 + a.z + z_1 (q.z)); each dataclass maps its
    fields to (a0, a, q, s) in `__post_init__`, so `replace` recomputes them.
    Rows are summed in plain floats, which beat numpy on 3-vectors."""

    def _set_form(self, a0, a, q, s):
        a0, a, q, s = float(a0), tuple(map(float, a)), tuple(map(float, q)), float(s)
        if not a or len(q) != len(a):
            raise FrontlabError("need n >= 1 linear and n quadratic coefficients")
        _require_finite(coefficients=(a0, s) + a + q)
        object.__setattr__(self, "_form", (a0, a, q, s))
        rate = abs(s) * max(1.0, *map(abs, a + q))
        object.__setattr__(self, "_step_floor", STEP_FLOOR / rate if rate else 0.0)

    @property
    def dim(self):
        return len(self._form[1])

    def field_at(self, z):
        a0, a, q, s = self._form
        z = np.asarray(z, dtype=float).tolist()
        lin = quad = 0.0
        for x, a_j, q_j in zip(z, a, q):
            lin += a_j * x
            quad += q_j * x
        return np.array([s * x for x in z[1:] + [a0 + lin + z[0] * quad]])

    def taylor(self, z, w=()):
        """Taylor coefficients c_0..c_TAYLOR_ORDER, each the list z + w, of the
        solution through z, z(t + h) = sum c_k[:n] h^k, and of the tangent
        w' = J(z) w = s (w_2, .., w_n, a.w + w_1 (q.z) + z_1 (q.w)) through w:
        c_(k+1) is c_k shifted times s/(k + 1), its last entries Cauchy products
        of the z_1 (and w_1) histories with the q.z (and q.w) histories, newest
        first.  Every sum adds its terms left to right, as `sum` does."""
        a0, a, q, s = self._form
        n, tangent = len(a), len(w) > 0
        c = [*map(float, z), *map(float, w)]
        rows, z1, qz, w1, qw = [c], [c[0]], [], c[n:n + 1], []
        for k in range(TAYLOR_ORDER):
            r = s / (k + 1)
            qz.append(sum(map(mul, q, c)))
            last = sum(map(mul, a, c)) + sum(map(mul, z1, reversed(qz)))
            new = [r * x for x in c[1:n]]
            new.append(r * (last + a0 if k == 0 else last))
            if tangent:
                cw = c[n:]
                qw.append(sum(map(mul, q, cw)))
                tan = sum(map(mul, a, cw)) + sum(map(
                    add, map(mul, w1, reversed(qz)), map(mul, z1, reversed(qw))))
                new += [r * x for x in cw[1:]]
                new.append(r * tan)
                w1.append(new[n])
            z1.append(new[0])
            rows.append(new)
            c = new
        return rows

    def jacobian_at(self, z):
        z = np.asarray(z, dtype=float).tolist()
        _a0, a, q, s = self._form
        row = [a_j + z[0] * q_j for a_j, q_j in zip(a, q)]
        for x, q_j in zip(z, q):
            row[0] += q_j * x
        jac = np.zeros((len(a), len(a)))
        for k in range(len(a) - 1):
            jac[k, k + 1] = s
        jac[-1] = [s * r for r in row]
        return jac

    def scalar_equilibrium_coeffs(self):
        """(a0, a_1, q_1): the last row on the line z = (c, 0, .., 0)."""
        a0, a, q, _s = self._form
        return (a0, a[0], q[0])


@dataclass(frozen=True)
class SpeedODE(_CompanionForm):
    """The speed ODE c' = eps^2 (c_2, .., c_N', a0 + a_lin.c + c_1 a_quad.c):
    the companion form with (a0, a, q, s) = (a0, a_lin, a_quad, eps^2)."""

    a0: float
    a_lin: tuple
    a_quad: tuple
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "a_lin", tuple(float(a) for a in self.a_lin))
        object.__setattr__(self, "a_quad", tuple(float(a) for a in self.a_quad))
        self._set_form(self.a0, self.a_lin, self.a_quad, self.epsilon ** 2)


@dataclass(frozen=True)
class ScaledNF(_CompanionForm):
    """Rescaled normal form z' = (z_2, .., z_n, nu0 + nu.z + a11 z_1^2
    + a12 delta z_1 z_2) in slow time: the companion form with
    (a0, a, q, s) = (nu0, nu, (a11, a12 delta, 0, ..), 1).

    In the saddle-focus normal form the z_1-linear term has been shifted
    away, so nu = (0, mu_bar, nu_bar) and nu0 plays the role of lambda_bar.
    """

    nu0: float
    nu: tuple
    a11: float
    a12: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        n = len(self.nu)
        q = ((self.a11, self.a12 * self.delta) + (0.0,) * n)[:n]
        self._set_form(self.nu0, self.nu, q, 1.0)

    @classmethod
    def shilnikov(cls, lam_bar, mu_bar, nu_bar, a11):
        """Three-dimensional form with (lambda_bar, mu_bar, nu_bar) data."""
        return cls(nu0=lam_bar, nu=(0.0, mu_bar, nu_bar), a11=a11)

    @property
    def mu_bar(self):
        return self.nu[1] if len(self.nu) >= 2 else 0.0

    @property
    def nu_bar(self):
        return self.nu[2] if len(self.nu) >= 3 else 0.0


def build_from_analysis(params: SystemParams, coupling: Coupling,
                        n_prime: int, h: float) -> SpeedODE:
    """Speed ODE coefficients from the existence and Evans expansions.

    a_lin comes from the linear unfolding of the small Evans roots at the
    multiplicity-(n_prime+1) base point `design_evans_degeneracy(params,
    n_prime)`, so for n_prime < N the coupling must lie near that design
    (alpha_j near 0 for j > n_prime); a0 = h * gamma and
    a11 = h * (c^2-coefficient of the existence expansion).  The cross
    coefficients a1j for j >= 2 are not reachable at leading order and
    default to zero.
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
    return SpeedODE(a0=h * coupling.gamma, a_lin=tuple(abar), a_quad=a_quad,
                    epsilon=params.epsilon)


def _taylor_step(ode, z, tol, w):
    """(rows, h): `ode.taylor(z, w)` and the step it allows at tolerance tol,
    the least (eps / |c_k|)^(1/k) over the last two orders k, with
    eps = tol max(1, |c_0|) and max-norms (Jorba and Zou).  h is inf for a
    series that ends early, and 0.0 below the form's step floor (STEP_FLOOR
    of its time scale) or for a non-finite state: a blow-up to callers."""
    rows = ode.taylor(z, w)
    eps = tol * max(1.0, max(map(abs, rows[0])))
    sizes = [(max(map(abs, rows[k])), k) for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER)]
    h = min(((eps / size) ** (1.0 / k) for size, k in sizes if size > 0.0), default=math.inf)
    return rows, (h if h >= ode._step_floor and all(map(math.isfinite, z)) else 0.0)


def _horner(rows, h):
    """The step polynomial sum_k rows[k] h^k, entry by entry."""
    out = []
    for col in zip(*rows):
        x = col[-1]
        for c in col[-2::-1]:
            x = x * h + c
        out.append(x)
    return out


def _march(ode, y, spans, tol, run):
    """`_taylor_step`s from y (the state, then any tangent) through chunks of
    the lengths `spans`, each step clipped to its chunk's time left: yields
    (rows, h, y, left), y the step's end, from which the next step starts (a
    caller may rescale it in place), and left the chunk's time before it.
    Ends after a step of h = 0.0; past MAX_TAYLOR_STEPS steps in all it
    raises FrontlabError, naming the run by `run`."""
    n, budget = ode.dim, iter(range(MAX_TAYLOR_STEPS))    # shared by the chunks
    for left in spans:
        for _ in budget:
            rows, h = _taylor_step(ode, y[:n], tol, y[n:])
            h = min(h, left)
            y = _horner(rows, h)
            yield rows, h, y, left
            if h == 0.0:
                return
            left -= h
            if left == 0.0:
                break
        else:
            raise FrontlabError(f"{run} needs more than {MAX_TAYLOR_STEPS:,} "
                                "Taylor steps (MAX_TAYLOR_STEPS)")


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray            # shape (dim, len(t))
    blew_up: bool
    dense: object            # the step polynomials, at a time or an array of times

    def __call__(self, t):
        return self.dense(t)


def integrate(ode, initial, t_end: float, tol: float = 1e-8,
              t_eval=None) -> Trajectory:
    """Trajectory of the speed ODE (or scaled normal form) in Taylor steps
    (`_taylor_step` at tolerance tol): the step ends or, with `t_eval`, those
    samples by Horner's rule on the step polynomials, which are `dense`.  A
    step below the step floor or ending with a state norm above 1e8 stops the
    run, flagged: at the last step end, or the last sample within 1e8.  A run
    that needs more than MAX_TAYLOR_STEPS steps raises FrontlabError."""
    if tol <= 0:
        raise FrontlabError("tol must be positive")
    if not 0 < t_end < math.inf:
        raise FrontlabError(f"t_end must be positive and finite, got {t_end}")
    t = np.zeros(0) if t_eval is None else np.asarray(t_eval, dtype=float)
    if not np.all((0.0 <= t) & (t <= t_end)):
        raise FrontlabError(f"t_eval must lie within [0, t_end = {t_end}]")
    if np.any(np.diff(t) < 0.0):
        raise FrontlabError("t_eval must be non-decreasing")
    z = np.asarray(initial, dtype=float).tolist()
    times, states, starts, polys, blew_up = [0.0], [z], [], [], False
    for rows, h, z, left in _march(ode, z, (float(t_end),), tol, f"t_end={float(t_end)!r}"):
        starts.append(t_end - left)
        # one array a step, a sixth of 21 lists' memory (a blow-up step's too: dense ends on it)
        polys.append(np.array(rows))
        if not (h > 0.0 and math.hypot(*z) <= BLOWUP_NORM):
            blew_up = True
            break
        times.append(t_end - (left - h))
        states.append(z)

    def dense(at):
        shape, at = np.shape(at), np.ravel(at).astype(float)
        steps = np.maximum(np.searchsorted(starts, at, side="right"), 1) - 1
        out = [_horner(polys[i].tolist(), s - starts[i]) for i, s in zip(steps, at.tolist())]
        return np.array(out).T.reshape((len(states[0]),) + shape)

    if t_eval is None:
        return Trajectory(np.array(times), np.array(states).T, blew_up, dense)
    y = dense(t[t <= starts[-1] + h] if blew_up else t)    # the last step is accurate too
    n = np.argmin(np.append(np.linalg.norm(y, axis=0) <= BLOWUP_NORM, False))
    return Trajectory(t[:n], y[:, :n], blew_up, dense)


@dataclass(frozen=True)
class Equilibrium:
    c_star: float
    eigenvalues: tuple
    kind: str

    @property
    def state(self):
        return np.array([self.c_star] + [0.0] * (len(self.eigenvalues) - 1))


def classify_eigenvalues(eigs) -> str:
    """Stability type from eigenvalues; saddle-focus labels in dimension 3."""
    eigs = np.asarray(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    tiny = HYPER_TOL * scale
    re = eigs.real
    if np.any(np.abs(re) <= tiny):
        return "nonhyperbolic"
    n_unstable = int(np.sum(re > 0))
    if n_unstable == 0:
        return "sink"
    if n_unstable == len(eigs):
        return "source"
    if len(eigs) == 3:
        unstable = eigs[re > 0]
        stable = eigs[re < 0]
        if n_unstable == 1 and abs(unstable[0].imag) <= tiny \
                and np.max(np.abs(stable.imag)) > tiny:
            return "saddle-focus(1u,2s)"
        if n_unstable == 2 and np.max(np.abs(unstable.imag)) > tiny \
                and abs(stable[0].imag) <= tiny:
            return "saddle-focus(2u,1s)"
    return "saddle"


def equilibria_and_classification(ode):
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
        eigs = np.linalg.eigvals(ode.jacobian_at([c_star] + [0.0] * (ode.dim - 1)))
        eigs = tuple(sorted(eigs, key=lambda z: (-z.real, z.imag)))
        out.append(Equilibrium(c_star=float(c_star), eigenvalues=eigs,
                               kind=classify_eigenvalues(eigs)))
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
    """`branch_equilibria` holds one (sign, end, c_star) for each branch
    p + sign SEED_OFFSET v_u (v_u's first entry positive) of the unstable
    manifold at the middle swept value.  `end` is `escape` (it left the
    radius 10 max(1, |c*|) about the saddle-focus p), `blow-up` (a step of
    h = 0 or a state norm above 1e8) or `horizon` (t = 400); only a `horizon`
    run names c_star, that of the equilibrium nearest its end, the others None."""

    candidates: tuple
    trace: tuple             # ShootPoint per sweep value
    branch_equilibria: tuple

    @property
    def has_sign_change(self) -> bool:
        ok = [p.miss for p in self.trace if p.status == "ok"]
        return any(_sign(a) * _sign(b) < 0 for a, b in zip(ok, ok[1:]))


def _sign(x):
    return (x > 0) - (x < 0)


def _saddle_focus_data(nf):
    """(equilibrium, other, lambda_u, v_u, w_u, rho_s) or None.

    lambda_u and the stable pair are the equilibrium's eigenvalues (sorted by
    real part, descending), rho_s = -Re(pair) / lambda_u.  The Jacobian at
    (c, 0, 0) is the companion matrix with last row r (s = 1 in the scaled
    form), so the right and left eigenvectors for lambda_u are closed forms:
    v_u = (1, lambda_u, lambda_u^2) / |.| and
    w_u = (lambda_u (lambda_u - r_3) - r_2, lambda_u - r_3, 1)."""
    eqs = equilibria_and_classification(nf)
    if len(eqs) != 2:
        return None
    focus = [e for e in eqs if e.kind == "saddle-focus(1u,2s)"]
    if not focus:
        return None
    eq = focus[0]
    other = eqs[0] if eqs[1] is eq else eqs[1]
    lam_u, stable_re = float(eq.eigenvalues[0].real), float(eq.eigenvalues[1].real)
    _r1, r2, r3 = nf.jacobian_at(eq.state)[-1].tolist()
    v_u = np.array([1.0, lam_u, lam_u * lam_u])
    v_u /= np.linalg.norm(v_u)
    w_u = np.array([lam_u * (lam_u - r3) - r2, lam_u - r3, 1.0])
    return eq, other, lam_u, v_u, w_u, -stable_re / lam_u


def _shoot_once(nf, t_max=400.0, integrator_tol=1e-10):
    """Miss distance for one coefficient set; see shilnikov_shoot."""
    data = _saddle_focus_data(nf)
    if data is None:
        return ShootPoint(nu_bar=nf.nu_bar, miss=math.nan,
                          status="no-saddle-focus")
    eq, other, lam_u, v_u, w_u, rho_s = data
    p, q = eq.state, other.state
    mid = 0.5 * (p + q)
    normal = q - p
    normal /= np.linalg.norm(normal)
    # seed the unstable branch toward the section between the equilibria;
    # the opposite branch leaves the quadratic trapping region immediately
    if np.dot(v_u, mid - p) < 0:
        v_u = -v_u
    y0 = p + SEED_OFFSET * v_u
    escape_radius = 10.0 * max(1.0, abs(eq.c_star))
    # the section function normal.(y - mid) on a step is the polynomial
    # normal.c_k less normal.mid; crossing #1 is the outbound transit of the
    # departing manifold, and the genuine first *return* is crossing #2
    normal, offset = normal.tolist(), float(np.dot(normal, mid))
    z, crossings, status, miss = y0.tolist(), 0, "timeout", math.nan
    g0 = sum(n_j * x for n_j, x in zip(normal, z)) - offset
    for rows, h, z, _left in _march(nf, z, (float(t_max),), integrator_tol,
                                    f"t_max={float(t_max)!r}"):
        g1 = sum(n_j * x for n_j, x in zip(normal, z)) - offset
        crossings += (g0 > 0.0) != (g1 > 0.0)
        if crossings == 2:       # Newton on the section polynomial of the step
            sec = np.array(rows) @ normal
            sec[0] -= offset
            slope = np.arange(1, len(sec)) * sec[1:]
            r = h * g0 / (g0 - g1)
            for _ in range(20):    # at most 20 steps, up to a fixed point
                step = polyval(r, sec) / polyval(r, slope)
                if r - step == r:
                    break
                r -= step
            x_c = np.array(_horner(rows, r))
            status, miss = "ok", float(np.dot(w_u, x_c - p) / np.dot(w_u, v_u))
            break
        if not h > 0.0 or math.dist(z, p) > escape_radius:
            status = "escape"
            break
        g0 = g1
    return ShootPoint(nu_bar=nf.nu_bar, miss=miss, status=status, rho_s=rho_s)


def _branch_endpoints(nf):
    """`ShootResult.branch_equilibria` for nf: each branch takes `integrate`'s
    steps (tolerance 1e-8) until it escapes, blows up or reaches t = 400."""
    data = _saddle_focus_data(nf)
    if data is None:
        return ()
    eq, other, _lam, v_u, _w, _rho = data
    p, escape_radius = eq.state.tolist(), 10.0 * max(1.0, abs(eq.c_star))
    out = []
    for sign in (+1.0, -1.0):
        z, end = (eq.state + sign * SEED_OFFSET * v_u).tolist(), "horizon"
        for _rows, h, z, _left in _march(nf, z, (400.0,), 1e-8, "t_max=400.0"):
            if not (h > 0.0 and math.hypot(*z) <= BLOWUP_NORM):
                end = "blow-up"
                break
            if math.dist(z, p) > escape_radius:
                end = "escape"
                break
        c_star = (min((eq, other), key=lambda e: math.dist(z, e.state)).c_star
                  if end == "horizon" else None)
        out.append((sign, end, c_star))
    return tuple(out)


def shilnikov_shoot(nf: ScaledNF, sweep, tol: float = 1e-6,
                    t_max: float = 400.0) -> ShootResult:
    """Scan the z_3-coefficient for homoclinic connections to a saddle-focus.

    The necessary conditions a11*nu0 < 0 and mu_bar < 0 are enforced up
    front.  For each swept value the one-dimensional unstable manifold is
    integrated to its first return to the mid-plane between the equilibria
    (its second crossing, after the outbound one), and each shot stops
    there; the signed miss distance is the unstable-eigenbasis coordinate of
    the return point.  Each sign change is narrowed by the Illinois variant of
    regula falsi (Dowell and Jarratt, BIT 11, 1971), at most 60 shots;
    returned candidates have |miss| < tol.  An empty candidate list always
    carries the full trace.  `branch_equilibria` says how each branch of the
    unstable manifold at the middle swept value ends (see `ShootResult`).
    A shot or a branch run that needs more than MAX_TAYLOR_STEPS steps
    raises FrontlabError naming t_max (400.0 for a branch run).
    """
    if not isinstance(nf, ScaledNF):
        raise FrontlabError(
            "shooting needs the scaled normal form; pass its coefficients with "
            "`ode --nf`")
    if nf.dim != 3:
        raise FrontlabError("shooting is defined for the three-dimensional form")
    if nf.a11 * nf.nu0 >= 0:
        raise FrontlabError(
            "necessary condition violated: need a11 * nu0 < 0 for the "
            "saddle-focus regime")
    if nf.mu_bar >= 0:
        raise FrontlabError("necessary condition violated: need mu_bar < 0")
    if not 0 < t_max < math.inf:
        raise FrontlabError(f"t_max must be positive and finite, got {t_max}")

    def at(nb):
        return replace(nf, nu=(nf.nu[0], nf.nu[1], nb))

    def shoot(nb):
        return _shoot_once(at(nb), t_max=t_max)

    sweep = [float(s) for s in sweep]
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
        flo, fhi = left.miss, right.miss
        kept = 0     # +1: lo was kept last time, -1: hi was
        best = None
        for _ in range(60):
            pm = shoot(hi - fhi * (hi - lo) / (fhi - flo))
            if pm.status != "ok":
                break
            best = pm
            if abs(pm.miss) < tol:
                break
            # the Illinois step: an end kept twice in a row has its miss halved
            if _sign(pm.miss) == _sign(flo):
                lo, flo = pm.nu_bar, pm.miss
                if kept == -1:
                    fhi *= 0.5
                kept = -1
            else:
                hi, fhi = pm.nu_bar, pm.miss
                if kept == 1:
                    flo *= 0.5
                kept = 1
        if best is not None and abs(best.miss) < tol:
            candidates.append(ShootCandidate(nu_bar=best.nu_bar,
                                             miss=best.miss, rho_s=best.rho_s))
    branches = _branch_endpoints(at(sweep[len(sweep) // 2]))
    return ShootResult(candidates=tuple(candidates), trace=tuple(trace),
                       branch_equilibria=branches)


def lyapunov_max(ode, initial, t_end: float, renorm_interval: float,
                 seed: int = 0) -> float:
    """Largest Lyapunov exponent by tangent-space renormalization.

    State and tangent vector take the same Taylor steps, `ode.taylor(z, w)`
    at tolerance 1e-10, clipped so that one ends at every renormalization of
    the tangent, each `renorm_interval`; the exponent is the mean log-growth
    per unit of the ODE's own time, with the leading 20% of the chunks
    discarded as transient.  More than MAX_TAYLOR_STEPS steps in all raise
    FrontlabError.
    """
    if not 0 < renorm_interval < t_end < math.inf:
        raise FrontlabError("need 0 < renorm_interval < t_end < inf")
    z = np.asarray(initial, dtype=float).tolist()
    v = np.random.default_rng(seed).standard_normal(len(z))
    n, logs = len(z), []
    chunks = repeat(renorm_interval, int(math.ceil(t_end / renorm_interval)))
    for _rows, h, y, left in _march(ode, z + (v / np.linalg.norm(v)).tolist(), chunks,
                                    1e-10, f"t_end={float(t_end)!r}"):
        if not (h > 0.0 and math.hypot(*y[:n]) <= BLOWUP_NORM):
            raise ConvergenceError("trajectory blew up during exponent estimation")
        if h == left:       # the chunk ends: renormalize the tangent
            norm = math.hypot(*y[n:])
            logs.append(math.log(norm))
            y[n:] = [x / norm for x in y[n:]]
    kept = logs[int(0.2 * len(logs)):]
    return float(sum(kept) / (len(kept) * renorm_interval))
