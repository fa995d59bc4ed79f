"""Reference computations that do not go through frontlab.

Every check in the benchmark compares frontlab's output with something
computed here, from the paper's closed forms, with numpy and the standard
library only: the existence function Gamma0 and the Evans function E0, their
Taylor series, the planted-speed coupling generator, the linear unfolding of
the fourfold Evans root, the Jordan-chain coefficients in rational arithmetic,
the cusp speed, the singular-limit fold, and the three-point Neumann stencil of
the discretized steady and time-dependent systems.

A model is a `Model(tau, d, gamma, alpha, beta, higher)` of plain floats:

    F(V) = gamma + sum_j alpha_j V_j + sum_j beta_j V_j**2
           + sum_{k>=3} higher[k-3] V_1**k.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

SQRT2 = math.sqrt(2.0)


class Model(NamedTuple):
    tau: tuple
    d: tuple
    gamma: float
    alpha: tuple
    beta: tuple
    higher: tuple = ()

    @property
    def n(self) -> int:
        return len(self.tau)


def model_of(params, coupling) -> Model:
    """Plain-float copy of a frontlab (SystemParams, Coupling) pair."""
    return Model(tuple(params.tau), tuple(params.d), float(coupling.gamma),
                 tuple(coupling.alpha), tuple(coupling.beta), tuple(coupling.higher))


# -- the coupling and the existence function ----------------------------------

def plateau(model: Model, c: float) -> list:
    """Slow plateau values V*_j(c) = c tau_j / sqrt(4 d_j^2 + c^2 tau_j^2)."""
    return [c * t / math.sqrt(4.0 * dj * dj + c * c * t * t)
            for t, dj in zip(model.tau, model.d)]


def coupling_value(model: Model, v):
    """F(V) at one point, or pointwise for V of shape (N, n_x)."""
    out = model.gamma
    for a, b, vj in zip(model.alpha, model.beta, v):
        out += a * vj + b * vj * vj
    for k, hk in enumerate(model.higher, start=3):
        out += hk * v[0] ** k
    return out


def coupling_grad(model: Model, v) -> list:
    grad = [a + 2.0 * b * vj for a, b, vj in zip(model.alpha, model.beta, v)]
    for k, hk in enumerate(model.higher, start=3):
        grad[0] += k * hk * v[0] ** (k - 1)
    return grad


def gamma0(model: Model, c: float) -> float:
    return coupling_value(model, plateau(model, c)) - SQRT2 / 3.0 * c


def gamma0_prime(model: Model, c: float) -> float:
    grad = coupling_grad(model, plateau(model, c))
    dv = [4.0 * dj * dj * t / (4.0 * dj * dj + c * c * t * t) ** 1.5
          for t, dj in zip(model.tau, model.d)]
    return sum(g * x for g, x in zip(grad, dv)) - SQRT2 / 3.0


def gamma0_on(model: Model, cs: np.ndarray) -> np.ndarray:
    """Gamma0 at every speed of an array (the scalar formula, vectorized)."""
    v = [cs * t / np.sqrt(4.0 * dj * dj + cs * cs * t * t)
         for t, dj in zip(model.tau, model.d)]
    out = model.gamma - SQRT2 / 3.0 * cs
    for a, b, vj in zip(model.alpha, model.beta, v):
        out = out + a * vj + b * vj * vj
    for k, hk in enumerate(model.higher, start=3):
        out = out + hk * v[0] ** k
    return out


def scan_roots(model: Model, lo: float, hi: float, step: float = 1e-3) -> list:
    """Sign-change roots of Gamma0 on a fine grid, refined by bisection."""
    n = int(math.ceil((hi - lo) / step))
    grid = np.linspace(lo, hi, n + 1)
    vals = gamma0_on(model, grid)
    roots = []
    for a, b, fa, fb in zip(grid[:-1].tolist(), grid[1:].tolist(),
                            vals[:-1].tolist(), vals[1:].tolist()):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = gamma0(model, m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return roots


# -- the Evans function --------------------------------------------------------

def evans(model: Model, c: float, lam: complex) -> complex:
    """E0(lambda) at speed c with principal square roots."""
    grad = coupling_grad(model, plateau(model, c))
    total = complex(lam)
    for g, t, dj in zip(grad, model.tau, model.d):
        base = c * c * t * t + 4.0 * dj * dj
        total += 3.0 * SQRT2 * g * (1.0 / cmath.sqrt(base + 4.0 * dj * dj * t * lam)
                                    - 1.0 / math.sqrt(base))
    return total


def evans_scale(model: Model, c: float, lam: complex) -> float:
    """Size of the terms summed in E0, the yardstick for 'E0 vanishes'."""
    grad = coupling_grad(model, plateau(model, c))
    return abs(lam) + sum(3.0 * SQRT2 * abs(g) / (2.0 * dj)
                          for g, dj in zip(grad, model.d)) + 1.0


# -- truncated series ----------------------------------------------------------

def _mul(a, b):
    return np.convolve(a, b)[:len(a)]


def _binomial(exponent: float, order: int) -> np.ndarray:
    out = np.ones(order + 1)
    for k in range(1, order + 1):
        out[k] = out[k - 1] * (exponent - (k - 1)) / k
    return out


def plateau_series(tau: float, d: float, order: int) -> np.ndarray:
    """V*(c) = u c (1 + u^2 c^2)^(-1/2), u = tau/(2d), as coefficients in c."""
    u = tau / (2.0 * d)
    out = np.zeros(order + 1)
    for k, b in enumerate(_binomial(-0.5, order // 2)):
        if 2 * k + 1 <= order:
            out[2 * k + 1] = b * u ** (2 * k + 1)
    return out


def gamma0_series(model: Model, order: int) -> np.ndarray:
    """Taylor coefficients of Gamma0 at c = 0 through `order`."""
    out = np.zeros(order + 1)
    out[0] = model.gamma
    if order >= 1:
        out[1] = -SQRT2 / 3.0
    v = [plateau_series(t, dj, order) for t, dj in zip(model.tau, model.d)]
    for a, b, vj in zip(model.alpha, model.beta, v):
        out += a * vj + b * _mul(vj, vj)
    power = _mul(v[0], v[0])
    for hk in model.higher:
        power = _mul(power, v[0])
        out += hk * power
    return out


def evans_series_c0(model: Model, order: int) -> np.ndarray:
    """Taylor coefficients of E0 at lambda = 0 for a stationary front.

    At c = 0 the plateaus vanish, so dF_j = alpha_j and
    E0 = lambda + (3 sqrt 2 / 2) sum_j alpha_j / d_j ((1 + tau_j lambda)^(-1/2) - 1).
    """
    out = np.zeros(order + 1)
    if order >= 1:
        out[1] = 1.0
    b = _binomial(-0.5, order)
    for a, t, dj in zip(model.alpha, model.tau, model.d):
        for k in range(1, order + 1):
            out[k] += 1.5 * SQRT2 * a / dj * b[k] * t ** k
    return out


# -- designed parameter sets ---------------------------------------------------

def fourfold_alpha(tau, d) -> np.ndarray:
    """alpha_j = (2 sqrt 2 d_j / (3 tau_j)) prod_{k != j} tau_k / (tau_k - tau_j)."""
    out = []
    for j, (tj, dj) in enumerate(zip(tau, d)):
        prod = 1.0
        for k, tk in enumerate(tau):
            if k != j:
                prod *= tk / (tk - tj)
        out.append(2.0 * SQRT2 * dj / (3.0 * tj) * prod)
    return np.asarray(out)


def planted_coupling(tau: float, d: float, speeds, double=None) -> Model:
    """N = 1 quartic coupling whose Gamma0 vanishes at the planted speeds.

    F(v) = sum_k f_k v^k must satisfy F(V*(c_i)) = (sqrt 2 / 3) c_i, a
    Vandermonde system in the plateau values V*(c_i).  With `double` one of
    the speeds is planted twice: the extra row asks Gamma0'(c) = 0 there.
    """
    speeds = [float(c) for c in speeds]
    shell = Model((tau,), (d,), 0.0, (0.0,), (0.0,))
    v = [plateau(shell, c)[0] for c in speeds]
    rows = [[vi ** k for k in range(5)] for vi in v]
    rhs = [SQRT2 / 3.0 * c for c in speeds]
    if double is not None:
        c = float(double)
        vd = plateau(shell, c)[0]
        dv = 4.0 * d * d * tau / (4.0 * d * d + c * c * tau * tau) ** 1.5
        rows.append([k * vd ** (k - 1) * dv if k else 0.0 for k in range(5)])
        rhs.append(SQRT2 / 3.0)
    if len(rows) != 5:
        raise ValueError("a quartic coupling takes exactly five conditions")
    f = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    return Model((tau,), (d,), float(f[0]), (float(f[1]),), (float(f[2]),),
                 (float(f[3]), float(f[4])))


def unfolding_roots(tau, d, base_alpha, delta) -> np.ndarray:
    """Predicted small Evans roots after perturbing alpha by delta.

    E0/lambda at the base point starts at lambda^ell; perturbed, its first ell
    Taylor coefficients become small, and to leading order the small roots
    solve lambda^ell = sum_i a_i lambda^(i-1) with a from a lower-triangular
    Toeplitz solve against the base coefficients.
    """
    ell = len(tau)
    base = Model(tuple(tau), tuple(d), 0.0, tuple(base_alpha), (0.0,) * ell)
    pert = base._replace(alpha=tuple(np.asarray(base_alpha) + np.asarray(delta)))
    e_base = evans_series_c0(base, 2 * ell)[1:]
    e_pert = evans_series_c0(pert, 2 * ell)[1:]
    toeplitz = np.array([[e_base[ell + r - col] if col <= r else 0.0
                          for col in range(ell)] for r in range(ell)])
    a = -np.linalg.solve(toeplitz, e_pert[:ell])
    return np.roots(np.concatenate([[1.0], -a[::-1]]))


def hausdorff(a, b) -> float:
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if not a or not b:
        return math.inf
    return max(max(min(abs(x - y) for y in b) for x in a),
               max(min(abs(x - y) for y in a) for x in b))


# -- Jordan chains -------------------------------------------------------------

def jordan_closed(j: int) -> list:
    """a_j^i = (2^i / i!) C(2j - i, j) / C(2j, j), i = 0..j, exactly."""
    c2jj = math.comb(2 * j, j)
    return [Fraction(2 ** i, math.factorial(i)) * Fraction(math.comb(2 * j - i, j), c2jj)
            for i in range(j + 1)]


def jordan_recurrence(j: int) -> list:
    """The same coefficients from v_j'' = v_j + tau v_{j-1} and even reflection.

    With v_j = P_j (e^-x / d) p_j(x) and P_j the sign prefactor below, the
    chain ODE becomes p_j'' - 2 p_j' = -(2j/(2j-1)) p_{j-1}; matching powers
    of x gives the top coefficient directly and the rest by back
    substitution, and the even reflection v'(0) = 0 pins a_j^0 = a_j^1.
    """
    coeffs = [Fraction(1)]
    for jj in range(1, j + 1):
        rhs = [-Fraction(2 * jj, 2 * jj - 1) * a for a in coeffs]
        cur = [Fraction(0)] * (jj + 1)
        # coefficient of x^i: (i+2)(i+1) a_{i+2} - 2 (i+1) a_{i+1} = rhs_i
        for i in range(jj - 1, -1, -1):
            upper = cur[i + 2] if i + 2 <= jj else Fraction(0)
            cur[i + 1] = ((i + 2) * (i + 1) * upper - rhs[i]) / (2 * (i + 1))
        cur[0] = cur[1]
        coeffs = cur
    return coeffs


def jordan_sign_prefactor(j: int) -> Fraction:
    """(-1)^j (2j-1)!! / (2j)!!."""
    num = math.prod(range(2 * j - 1, 0, -2)) if j else 1
    den = math.prod(range(2 * j, 0, -2)) if j else 1
    return Fraction((-1) ** j * num, den)


# -- speed ODE -----------------------------------------------------------------

def scalar_equilibria(nu0: float, nu1: float, a11: float) -> list:
    """Real roots of a11 c^2 + nu1 c + nu0 = 0, ascending."""
    if a11 == 0.0:
        return [] if nu1 == 0.0 else [-nu0 / nu1]
    disc = nu1 * nu1 - 4.0 * a11 * nu0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return sorted([(-nu1 - sq) / (2.0 * a11), (-nu1 + sq) / (2.0 * a11)])


def companion_eigenvalues(last_row) -> np.ndarray:
    """Eigenvalues of z_k' = z_{k+1}, z_n' = last_row . z (companion form)."""
    n = len(last_row)
    comp = np.zeros((n, n))
    for k in range(n - 1):
        comp[k, k + 1] = 1.0
    comp[-1] = last_row
    return np.linalg.eigvals(comp)


# -- singular-limit speeds and folds --------------------------------------------

def cusp_speed() -> float:
    """Positive root of Gamma0 for tau = d = 1, F(v) = 2 v - v^3.

    With z = 4 + c^2 the nonzero roots solve z + 4 = (sqrt 2 / 3) z^(3/2),
    i.e. the cubic 2 z^3 - 9 z^2 - 72 z - 144 = 0.
    """
    z = max(r.real for r in np.roots([2.0, -9.0, -72.0, -144.0]) if abs(r.imag) < 1e-12)
    return math.sqrt(z - 4.0)


def singular_fold_alpha1(model: Model, c_lo: float, c_hi: float) -> tuple:
    """Fold of the singular-limit branch in alpha_1: Gamma0 = dGamma0/dc = 0.

    Gamma0 is affine in alpha_1, Gamma0 = A(c) + alpha_1 V*_1(c); the fold
    solves A' V*_1 - A V*_1' = 0 on [c_lo, c_hi]; returns (alpha_1, c).
    """
    rest = model._replace(alpha=(0.0,) + tuple(model.alpha[1:]))

    def parts(c):
        a = gamma0(rest, c)
        da = gamma0_prime(rest, c)
        t, dj = model.tau[0], model.d[0]
        v1 = c * t / math.sqrt(4.0 * dj * dj + c * c * t * t)
        dv1 = 4.0 * dj * dj * t / (4.0 * dj * dj + c * c * t * t) ** 1.5
        return a, da, v1, dv1

    def fold_eq(c):
        a, da, v1, dv1 = parts(c)
        return da * v1 - a * dv1

    lo, hi = c_lo, c_hi
    flo = fold_eq(lo)
    if flo * fold_eq(hi) > 0.0:
        raise ValueError("no fold bracketed")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = fold_eq(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    c = 0.5 * (lo + hi)
    a, _da, v1, _dv1 = parts(c)
    return -a / v1, c


def decoupled_speed(epsilon: float, gamma: float) -> float:
    """Lab-frame speed eps^2 * 3 sqrt(2) gamma / 2 of a constant-forcing front."""
    return epsilon ** 2 * 3.0 * SQRT2 * gamma / 2.0


# -- discretized PDE -----------------------------------------------------------

def _d2(w: np.ndarray, h: float) -> np.ndarray:
    """Three-point Laplacian with mirrored ghosts (homogeneous Neumann)."""
    padded = np.concatenate([w[1:2], w, w[-2:-1]])
    return (padded[2:] - 2.0 * w + padded[:-2]) / (h * h)


def _d1(w: np.ndarray, h: float) -> np.ndarray:
    """Centred first difference; mirrored ghosts make it zero at both ends."""
    out = np.zeros_like(w)
    out[1:-1] = (w[2:] - w[:-2]) / (2.0 * h)
    return out


def steady_residual(model: Model, epsilon: float, h: float, u, v, c: float) -> np.ndarray:
    """Residual of the comoving steady system at (U, V) and speed c."""
    eps2 = epsilon * epsilon
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    f = coupling_value(model, v)
    out = [eps2 * _d2(u, h) + eps2 * c * _d1(u, h) + u - u ** 3 - epsilon * f]
    for j in range(model.n):
        out.append(eps2 * model.d[j] ** 2 * _d2(v[j], h)
                   + eps2 * c * model.tau[j] * _d1(v[j], h) + eps2 * (u - v[j]))
    return np.concatenate(out)


def dynamic_jacobian(model: Model, epsilon: float, h: float, u, v, c: float):
    """Sparse Jacobian of the time-dependent system, row block j scaled by 1/tau_j."""
    eps2 = epsilon * epsilon
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nx = len(u)
    inv_h2 = 1.0 / (h * h)
    inv_2h = 1.0 / (2.0 * h)
    off_hi = np.full(nx - 1, inv_h2)
    off_lo = np.full(nx - 1, inv_h2)
    off_hi[0] = 2.0 * inv_h2      # mirrored ghost at the left end
    off_lo[-1] = 2.0 * inv_h2     # and at the right
    lap = sp.diags([off_lo, np.full(nx, -2.0 * inv_h2), off_hi], (-1, 0, 1))
    d1_hi = np.full(nx - 1, inv_2h)
    d1_lo = np.full(nx - 1, -inv_2h)
    d1_hi[0] = 0.0
    d1_lo[-1] = 0.0
    grad1 = sp.diags([d1_lo, d1_hi], (-1, 1))
    eye = sp.identity(nx)
    grads = coupling_grad(model, list(v))
    n = model.n
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    blocks[0][0] = eps2 * lap + eps2 * c * grad1 + sp.diags(1.0 - 3.0 * u * u)
    for j in range(n):
        scale = 1.0 / model.tau[j]
        blocks[0][j + 1] = sp.diags(-epsilon * np.asarray(grads[j]) * np.ones(nx))
        blocks[j + 1][0] = scale * eps2 * eye
        blocks[j + 1][j + 1] = scale * (eps2 * model.d[j] ** 2 * lap
                                        + eps2 * c * model.tau[j] * grad1 - eps2 * eye)
    return sp.bmat(blocks, format="csc")
