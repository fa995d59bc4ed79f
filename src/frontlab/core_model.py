"""Structural parameters, coupling polynomials, and truncated power series.

Value types shared by every analytic layer: the slow-fast system's
structural parameters (N, epsilon, tau_j, d_j), the coupling function as
structured polynomial data, and a small truncated-Taylor arithmetic that
drives all series expansions downstream.  Every singular-limit series
(the plateau values, Gamma0 at any speed, E0 at c = 0) expands
w^(-1/2) for a quadratic w by one recurrence, `_rsqrt_series`.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FrontlabError

def _require_finite(**fields):
    for name, values in fields.items():
        if not all(math.isfinite(x) for x in values):
            raise FrontlabError(f"{name} must be finite, got {values}")


@dataclass(frozen=True)
class SystemParams:
    """Structural parameters of the 1-fast/N-slow system.

    Attributes:
        epsilon: scale separation parameter, > 0.
        tau: time-scale ratios tau_j > 0, length N >= 1.
        d: diffusion-length ratios d_j > 0, length N.
    """

    epsilon: float
    tau: tuple
    d: tuple

    def __post_init__(self):
        tau = tuple(float(t) for t in self.tau)
        d = tuple(float(x) for x in self.d)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "d", d)
        n = len(tau)
        if n < 1:
            raise FrontlabError("need at least one slow component")
        if len(d) != n:
            raise FrontlabError(f"len(d)={len(d)} != len(tau)={n}")
        _require_finite(epsilon=(self.epsilon,), tau=tau, d=d)
        if not self.epsilon > 0:
            raise FrontlabError(f"epsilon must be positive, got {self.epsilon}")
        if any(t <= 0 for t in tau):
            raise FrontlabError(f"all tau_j must be positive, got {tau}")
        if any(x <= 0 for x in d):
            raise FrontlabError(f"all d_j must be positive, got {d}")

    @property
    def n_slow(self) -> int:
        """The number N of slow components, len(tau)."""
        return len(self.tau)


@dataclass(frozen=True)
class Coupling:
    """Coupling function as structured polynomial data.

    F(V) = gamma + sum_j alpha_j V_j + sum_j beta_j V_j**2
           + sum_{k>=3} higher[k-3] V_1**k

    The univariate tail `higher` is only admitted for N = 1.  The nonlinear
    part has no constant term by construction, so F_nl(0) = 0.
    """

    gamma: float
    alpha: tuple
    beta: tuple
    higher: tuple = ()

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        higher = tuple(float(hk) for hk in self.higher)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "higher", higher)
        _require_finite(gamma=(self.gamma,), alpha=alpha, beta=beta, higher=higher)
        if len(beta) != len(alpha):
            raise FrontlabError(f"len(beta)={len(beta)} != len(alpha)={len(alpha)}")
        if higher and len(alpha) != 1:
            raise FrontlabError("univariate tail `higher` requires N = 1")

    @property
    def n_slow(self) -> int:
        return len(self.alpha)

    @property
    def max_degree(self) -> int:
        """Highest V-power appearing (2 without a univariate tail)."""
        return 2 + len(self.higher)

    def bound(self) -> float:
        """L1 bound on |F| over the unit box |V_j| <= 1."""
        return (abs(self.gamma) + sum(abs(a) for a in self.alpha)
                + sum(abs(b) for b in self.beta)
                + sum(abs(hk) for hk in self.higher))

    def __call__(self, v):
        return eval_coupling(self, v)

    def _slot(self, name: str):
        """Field and index of a named coefficient (index None for gamma)."""
        if name == "gamma":
            return "gamma", None
        for field in ("alpha", "beta"):
            for j in range(self.n_slow):
                if name == f"{field}{j + 1}":
                    return field, j
        raise FrontlabError(
            f"coupling parameter {name!r} must be 'gamma', 'alpha<j>' or "
            f"'beta<j>' with 1 <= j <= {self.n_slow}")

    def param(self, name: str) -> float:
        """Value of the coefficient named 'gamma', 'alpha<j>' or 'beta<j>'."""
        field, j = self._slot(name)
        return self.gamma if j is None else getattr(self, field)[j]

    def with_param(self, name: str, value: float) -> "Coupling":
        """Copy with the named coefficient set to value."""
        field, j = self._slot(name)
        if j is not None:
            value = tuple(value if i == j else x
                          for i, x in enumerate(getattr(self, field)))
        return replace(self, **{field: value})


def _components(coupling: Coupling, v) -> list:
    """The N components of v: the floats of an N-vector, the rows of an
    (N, ...) grid, or the entries of a sequence of PowerSeries."""
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], PowerSeries):
        comps = list(v)
    else:
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        # Python floats are cheaper to combine than numpy scalars
        comps = arr.tolist() if arr.ndim == 1 else list(arr)
    if len(comps) != coupling.n_slow:
        raise FrontlabError(
            f"expected {coupling.n_slow} components, got {len(comps)}")
    return comps


#: Thresholds relative to max(1, |z|): a value with no conjugate partner and
#: |Im| below REAL_IMAG_TOL is real, and a lower value within PAIR_TOL (and
#: within Im z) of an upper value's conjugate is its partner.  Rounding splits
#: pairs by up to 2.3e-8; genuine pairs and distinct values lie far apart.
REAL_IMAG_TOL = 1e-8
PAIR_TOL = 1e-6


def conjugate_pairs(vals) -> np.ndarray:
    """Restore the conjugate symmetry that rounding loses from a real
    operator's spectrum or the roots of a conjugate-symmetric function:
    each pair becomes exactly conjugate, each lone near-real value real."""
    vals = np.array(vals, dtype=complex)
    paired = np.zeros(len(vals), dtype=bool)
    for i in np.nonzero(vals.imag > 0)[0]:
        free = np.nonzero(~paired & (vals.imag < 0))[0]
        dist = np.abs(vals[free] - np.conj(vals[i]))
        if len(free) and dist.min() < min(vals[i].imag, PAIR_TOL * max(1.0, abs(vals[i]))):
            j = free[np.argmin(dist)]
            mean = 0.5 * (vals[i] + np.conj(vals[j]))
            vals[i], vals[j] = mean, np.conj(mean)
            paired[[i, j]] = True
    lone = ~paired & (np.abs(vals.imag) < REAL_IMAG_TOL * np.maximum(1.0, np.abs(vals)))
    vals[lone] = vals[lone].real
    return vals


def eval_coupling(coupling: Coupling, v):
    """F at v, written with + and * alone so that one expression serves an
    N-vector (float result), an (N, ...) grid (pointwise over the trailing
    axes) and a sequence of N PowerSeries (the composed series).

    Zero terms, gamma and the quadratic sum among them, are skipped: a series
    product or a grid pass costs far more than the test, and only a zero's sign moves.
    """
    v = _components(coupling, v)
    linear = quadratic = None
    for a, b, vj in zip(coupling.alpha, coupling.beta, v):
        if a:
            linear = a * vj if linear is None else linear + a * vj
        if b:
            quadratic = b * (vj * vj) if quadratic is None else quadratic + b * (vj * vj)
    if linear is None and (coupling.gamma or quadratic is None):
        linear = 0.0 * v[0]         # the shape, or the series, of v
    out = coupling.gamma + linear if coupling.gamma else linear
    if quadratic is not None:
        out = quadratic if out is None else out + quadratic
    if coupling.higher:
        power = v[0] * v[0]
        for coeff in coupling.higher:
            power = power * v[0]
            out = out + coeff * power
    return out


def coupling_gradient(coupling: Coupling, v):
    """Exact partial derivatives dF/dV_j at v, for the same forms of v as
    eval_coupling: an (N,) or (N, ...) array, or a list of N PowerSeries."""
    v = _components(coupling, v)
    grad = [a + (2.0 * b) * vj for a, b, vj in zip(coupling.alpha, coupling.beta, v)]
    power = v[0]
    for k, coeff in enumerate(coupling.higher, start=3):
        power = power * v[0]
        grad[0] = grad[0] + (k * coeff) * power
    return grad if isinstance(v[0], PowerSeries) else np.array(grad)


@dataclass(frozen=True)
class PowerSeries:
    """Real Taylor series truncated at a fixed order.

    coeffs[k] is the coefficient of x**k; the truncation order is
    len(coeffs) - 1.  Binary operations truncate to the smaller order of the
    two operands.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise FrontlabError("a series needs at least the constant term")

    @classmethod
    def from_coeffs(cls, coeffs, order=None):
        coeffs = list(coeffs)
        if order is not None:
            coeffs = (coeffs + [0.0] * (order + 1 - len(coeffs)))[:order + 1]
        return cls(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> float:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other):
        if isinstance(other, PowerSeries):         # zip stops at the smaller order
            return PowerSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))
        coeffs = list(self.coeffs)
        coeffs[0] += float(other)
        return PowerSeries(tuple(coeffs))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            m = min(self.order, other.order)
            return PowerSeries(tuple(
                np.convolve(self.coeffs[:m + 1], other.coeffs[:m + 1])[:m + 1].tolist()))
        return PowerSeries(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _rsqrt_series(a: float, b: float, c: float, order: int) -> list:
    """Taylor coefficients y_0..y_order of w^(-1/2), w = a + b s + c s^2: from
    w y' = -w' y / 2, y_0 = a^(-1/2) and (k+1) a y_(k+1) = -(k + 1/2) b y_k - k c y_(k-1).
    All NaN unless a is positive and finite (4 d^2 underflows for a tiny d),
    for the caller's finiteness check to report."""
    if order < 0:
        raise FrontlabError(f"a Taylor order must be >= 0, got {order}")
    if not 0.0 < a < math.inf:
        return [math.nan] * (order + 1)
    y = [0.0, 1.0 / math.sqrt(a)]          # y[k + 1] is the coefficient of s^k
    for k in range(order):
        y.append(-(b * (k + 0.5) * y[-1] + c * k * y[-2]) / (a * (k + 1)))
    return y[1:]


def _finite_series(coeffs, what: str) -> PowerSeries:
    """The series of coeffs; FrontlabError naming `what` and its first
    non-finite order unless every coefficient is finite."""
    bad = [k for k, x in enumerate(coeffs) if not math.isfinite(x)]
    if bad:
        raise FrontlabError(f"{what} is not finite from order {bad[0]}: "
                            "the parameters overflow")
    return PowerSeries(tuple(coeffs))


def _plateau_series(params: SystemParams, j: int, center: float, order: int) -> PowerSeries:
    """Taylor series in s of the j-th plateau value at c = center + s,
    tau (center + s) y(s) with y = w^(-1/2), w = 4 d^2 + tau^2 (center + s)^2.
    At c = 0, where an overflowing tau^2 times 0 spoils every order, a series
    that is not finite is formed again as the odd tau s z(s^2), to name the
    first order that overflows (3 for "tau": [1e308])."""
    tau, d = params.tau[j - 1], params.d[j - 1]
    y = _rsqrt_series(4.0 * d * d + tau * tau * center * center, 2.0 * tau * tau * center,
                      tau * tau, order)
    coeffs = [tau * (center * yk + prev) for yk, prev in zip(y, [0.0] + y)]
    if center == 0.0 and not all(map(math.isfinite, coeffs)):
        z = _rsqrt_series(4.0 * d * d, tau * tau, 0.0, order // 2)
        coeffs = [0.0 * z[0]]           # NaN, order 0, where 4 d^2 underflows
        for zk in z:
            coeffs += [tau * zk, 0.0]
        coeffs = coeffs[:order + 1]
    return _finite_series(coeffs, f"the plateau series of slow component {j}")


def series_vstar(params: SystemParams, j: int, order: int) -> PowerSeries:
    """Taylor series in c of the j-th plateau value (j is 1-based).

    The plateau value is c*tau_j / sqrt(4 d_j^2 + c^2 tau_j^2); its series is
    odd, with leading coefficient tau_j/(2 d_j).
    """
    if not 1 <= j <= params.n_slow:
        raise FrontlabError(f"slow-component index {j} out of range 1..{params.n_slow}")
    return _plateau_series(params, j, 0.0, order)
