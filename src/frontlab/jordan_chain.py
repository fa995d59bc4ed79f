"""Eigenfunctions and generalized eigenfunctions at a stationary front.

Where E0's Taylor coefficients 1..ell at c = 0 vanish (`evans_taylor_c0`),
the translation eigenfunction extends to a Jordan chain of length ell with
closed-form polynomial-times-exponential slow components

    v^j_+(x) = C(-1/2, j) tau^j (e^(-x)/d) sum_i a_j^i x^i,
    a_j^i = (2^i / i!) C(2j-i, j) / C(2j, j),

mirrored evenly onto the negative half-line by `ChainProfile` alone, as
v^j_+(|y| / d).  The mirror is smooth at 0 exactly when a_j^0 = a_j^1, the
derivative jump that `verify_chain_ode` reports.  The coefficients satisfy
two exact recurrences which this module checks in rational arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core_model import Coupling, SystemParams, coupling_gradient
from .errors import FrontlabError
from .evans import evans_taylor_c0
from .existence import SQRT2, front_profile


def jordan_coeffs_closed(j: int):
    """Exact polynomial coefficients a_j^0..a_j^j as Fractions."""
    if j < 0:
        raise FrontlabError("chain index must be >= 0")
    c2jj = math.comb(2 * j, j)
    return [Fraction(2 ** i, math.factorial(i)) * Fraction(math.comb(2 * j - i, j), c2jj)
            for i in range(j + 1)]


def jordan_coeffs_recurrence(j: int):
    """Same coefficients generated from the two recurrences.

    Seeds: a_j^j = a_{j-1}^{j-1} / (2j - 1); then downward
        a_j^{i+1} = ((2j/(2j-1)) a_{j-1}^i + (i+1)(i+2) a_j^{i+2}) / (2(i+1))
    for i = j-2..0, and the even-reflection condition pins a_j^0 = a_j^1.
    """
    coeffs = [Fraction(1)]
    for jj in range(1, j + 1):
        prev = coeffs
        cur = [Fraction(0)] * (jj + 1)
        cur[jj] = prev[jj - 1] / (2 * jj - 1)
        for i in range(jj - 2, -1, -1):
            cur[i + 1] = (Fraction(2 * jj, 2 * jj - 1) * prev[i]
                          + (i + 1) * (i + 2) * cur[i + 2]) / (2 * (i + 1))
        cur[0] = cur[1]
        coeffs = cur
    return coeffs


def chain_prefactor(j: int) -> Fraction:
    """Rational part of the prefactor: the binomial coefficient C(-1/2, j),
    the coefficient of s^j in (1 + s)^(-1/2) (`core_model._rsqrt_series`)."""
    return Fraction(math.comb(2 * j, j), (-4) ** j)


@dataclass(frozen=True)
class JordanPolynomial:
    """Slow-component profile v^j of the Jordan chain for scalars (tau, d).

    v_plus(x) = prefactor * (e^(-x)/d) * sum_i coeffs[i] x^i on x >= 0.
    coeffs are exact rationals; prefactor carries the tau-power and sign.
    """

    j: int
    tau: float
    d: float
    coeffs: tuple          # exact Fractions a_j^0..a_j^j

    @property
    def prefactor(self) -> float:
        return float(chain_prefactor(self.j)) * self.tau ** self.j

    def poly(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def v_plus(self, x):
        x = np.asarray(x, dtype=float)
        out = self.prefactor / self.d * self.poly(x) * np.exp(-x)
        return float(out) if out.ndim == 0 else out


def jordan_poly(j: int, tau: float, d: float) -> JordanPolynomial:
    """Closed-form chain polynomial (`verify --suite full` checks the recurrences)."""
    return JordanPolynomial(j=j, tau=float(tau), d=float(d),
                            coeffs=tuple(jordan_coeffs_closed(j)))


@dataclass(frozen=True)
class ChainOdeReport:
    max_residual: float
    derivative_mismatch: float


def verify_chain_ode(profile_k: JordanPolynomial,
                     profile_km1: JordanPolynomial) -> ChainOdeReport:
    """Residual of v_k'' = v_k + tau v_{k-1}, and the derivative jump at 0.

    Fourth-order central differences with step 0.005 on [0, 15), which
    resolves the exponential decay.  The negative half-line is the even
    reflection, whose residual is the same numbers.  derivative_mismatch is
    |v_k'(0+) - v_k'(0-)| = 2 |v_k'(0+)|, the kink of that reflection: zero,
    to the differences' accuracy, exactly when a_k^0 = a_k^1.
    """
    step = 0.005
    x = np.arange(0.0, 15.0, step)
    f = profile_k.v_plus(x)
    g = profile_km1.v_plus(x)
    d2 = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12.0 * step * step)
    residual = np.max(np.abs(d2 - f[2:-2] - profile_k.tau * g[2:-2]))
    # one-sided 4th-order first derivative at 0+
    dp = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * step)
    return ChainOdeReport(max_residual=float(residual), derivative_mismatch=float(abs(2.0 * dp)))


@dataclass(frozen=True)
class ChainProfile:
    """Generalized eigenfunction number k at a stationary front.

    Pointwise-evaluable on the slow scale y; the fast interface occupies
    |y| <= sqrt(epsilon).  For k = 0 with spectral parameter `lam` this is
    the eigenfunction profile; for k >= 1 the fast U-value is the constant
    K_k and the slow components are the chain polynomials.
    """

    k: int
    params: SystemParams
    coupling: Coupling
    lam: complex = 0.0
    fast_value: float = 0.0                 # K_k for k >= 1

    def __post_init__(self):
        if self.k > 0:
            polys = tuple(jordan_poly(self.k, self.params.tau[j], self.params.d[j])
                          for j in range(self.params.n_slow))
            object.__setattr__(self, "_polys", polys)
            object.__setattr__(self, "_front", front_profile(
                self.params, self.coupling, 0.0, residual_tol=np.inf))
        else:
            hs = tuple(self.params.d[j] * cmath.sqrt(self.params.tau[j] * self.lam + 1.0)
                       for j in range(self.params.n_slow))
            if any(h.real <= 0 for h in hs):
                raise FrontlabError(
                    f"tau_j * lambda + 1 on the negative real axis for lambda={self.lam}")
            object.__setattr__(self, "_hs", hs)

    @property
    def interface_halfwidth(self):
        return math.sqrt(self.params.epsilon)

    def plateau(self, j: int):
        """Fast-field value of slow component j (1-based)."""
        if self.k == 0:
            return 1.0 / self._hs[j - 1]
        return self._polys[j - 1].prefactor / self.params.d[j - 1]

    def u(self, y):
        y = np.asarray(y, dtype=float)
        w = self.interface_halfwidth
        eps = self.params.epsilon
        if self.k == 0:
            # only the values inside the interface are kept; clamping y to it
            # keeps cosh^2 from overflowing far outside
            inner = SQRT2 / (2.0 * eps) / np.cosh(np.clip(y, -w, w) / (SQRT2 * eps)) ** 2
            out = np.where(np.abs(y) <= w, inner, 0.0)
            return float(out) if out.ndim == 0 else out
        # the front's slow fields; inside the interface u is K_k instead
        v0 = np.stack([self._front.v(j, y) for j in range(1, self.params.n_slow + 1)])
        grad = coupling_gradient(self.coupling, v0)
        slow = np.zeros_like(y, dtype=float)
        for j in range(self.params.n_slow):
            slow += grad[j] * self._slow_v(j + 1, y)
        out = np.where(np.abs(y) <= w, self.fast_value, -0.5 * eps * slow)
        return float(out) if out.ndim == 0 else out

    def _slow_v(self, j, y):
        # the module's one even reflection: v^k_-(x) = v^k_+(-x)
        return self._polys[j - 1].v_plus(np.abs(y) / self.params.d[j - 1])

    def v(self, j, y):
        """Slow component j (1-based) at position y."""
        y = np.asarray(y, dtype=float)
        w = self.interface_halfwidth
        if self.k == 0:
            h = self._hs[j - 1]
            d2 = self.params.d[j - 1] ** 2
            decay = np.exp(-h * np.abs(y) / d2)
            out = np.where(np.abs(y) <= w, 1.0 / h, decay / h)
            return complex(out) if out.ndim == 0 else out
        out = np.where(np.abs(y) <= w, self.plateau(j), self._slow_v(j, y))
        return float(out) if out.ndim == 0 else out


def eigenfunction_c0(params: SystemParams, lam: complex,
                     coupling: Coupling | None = None) -> ChainProfile:
    """Eigenfunction profile at spectral parameter lam for a stationary front.

    The slow components are (1/h_j) exp(-h_j |y| / d_j^2) with
    h_j = d_j sqrt(tau_j lam + 1); the fast component is the squared-secant
    interface mode, all up to one common scaling factor.
    """
    if coupling is None:
        coupling = Coupling(0.0, (0.0,) * params.n_slow, (0.0,) * params.n_slow)
    return ChainProfile(k=0, params=params, coupling=coupling, lam=complex(lam))


def chain_profile(params: SystemParams, coupling: Coupling, k: int,
                  ell: int) -> ChainProfile:
    """k-th generalized eigenfunction for a multiplicity-(ell+1) zero root.

    The solvability condition of order 1..k is that E0's Taylor coefficient
    of that order at c = 0 (`evans_taylor_c0`) vanishes, to 1e-8 of
    max(1, max |alpha_j|); raises naming the first violated order.  K_1 =
    epsilon/(3 sqrt 2); K_k for k >= 2 is one order smaller, set to zero here.
    """
    if not 0 <= k <= ell:
        raise FrontlabError(f"chain index {k} must lie in 0..ell={ell}")
    if ell > params.n_slow:
        raise FrontlabError(f"chain length {ell} exceeds N = {params.n_slow}")
    if k == 0:
        return eigenfunction_c0(params, 0.0, coupling)
    coeffs = evans_taylor_c0(params, coupling, k).coeffs[1:]
    scale = max(1.0, float(np.max(np.abs(np.asarray(coupling.alpha)))))
    for order, coeff in enumerate(coeffs, start=1):
        if abs(coeff) > 1e-8 * scale:
            raise FrontlabError(
                f"solvability condition violated at order {order}: E0's Taylor "
                f"coefficient {coeff:.3e} at c = 0 (needs multiplicity >= {k + 1} zero root)")
    fast = params.epsilon / (3.0 * SQRT2) if k == 1 else 0.0
    return ChainProfile(k=k, params=params, coupling=coupling, fast_value=fast)

