import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from frontlab import (Coupling, FrontlabError, PowerSeries, SystemParams,
                      fold_curves, front_profile, gamma0, gamma0_roots, gamma0_taylor)
from frontlab.core_model import eval_coupling
from frontlab.existence import gamma0_derivative, gamma0_series_at, root_multiplicity, v_star
from frontlab.verify import reference_parameter_sets
from oracles import double_factorial

SQRT2 = math.sqrt(2.0)

#: Planted N = 1 sets at tau/d = 0.5: pairs 0.02 and 0.03 apart, a simple
#: root at -0.38 where Gamma0 is flat, and a double root at -1.22.
FAULT_SETS = [((-1.5, 0.30, 0.32, 1.2, 2.0), None),
              ((-1.0, 0.10, 0.13, 0.9, 1.7), None),
              ((-0.64, -0.38, -0.06, 1.49, 2.57), None),
              ((-2.66, -1.22, -0.15, 0.79), -1.22)]
#: The property test below plants one pair of speeds as close as
#: PLANTED_GAP; the others are SPREAD_GAP apart, as in the benchmark's
#: planted sets (closer clusters make the planted coupling too large for
#: its roots to be known to 1e-7).
PLANTED_GAP, SPREAD_GAP = 0.01, 0.25


def planted_coupling(ratio, speeds, double=None):
    """N = 1 quartic coupling (tau = ratio, d = 1) whose Gamma0 vanishes at
    the planted speeds: F(Vstar(c_i)) = (sqrt 2 / 3) c_i is a Vandermonde
    system in the plateau values, and with `double` a derivative row asks
    Gamma0'(double) = 0 as well (five conditions in all)."""
    def plateau(c):
        return c * ratio / math.sqrt(4.0 + c * c * ratio * ratio)

    rows = [[plateau(c) ** k for k in range(5)] for c in speeds]
    rhs = [SQRT2 / 3.0 * c for c in speeds]
    if double is not None:
        slope = 4.0 * ratio / (4.0 + double * double * ratio * ratio) ** 1.5
        rows.append([k * plateau(double) ** (k - 1) * slope if k else 0.0 for k in range(5)])
        rhs.append(SQRT2 / 3.0)
    f = np.linalg.solve(np.array(rows), np.array(rhs))
    return (SystemParams(epsilon=0.05, tau=(ratio,), d=(1.0,)),
            Coupling(f[0], (f[1],), (f[2],), higher=(f[3], f[4])))


def assert_planted_once(params, coupling, found, speeds, double):
    """Each planted speed comes back once: simple within 1e-7 (relative), the
    double one with multiplicity 2 within 1e-6.  No root is a stray: no two
    coincide, each multiplicity is root_multiplicity's, and Gamma0 changes
    sign across each simple root (a stray beside a multiple root does not)."""
    for c in speeds:
        want, tol = ([2], 1e-6) if c == double else ([1], 1e-7)
        assert [m for r, m in found if abs(r - c) <= tol * max(1.0, abs(c))] == want, (c, found)
    assert np.all(np.diff([r for r, _m in found]) > 1e-4), found
    for r, m in found:
        assert root_multiplicity(params, coupling, r) == m
        h = 1e-5 * max(1.0, abs(r))
        if m == 1:
            assert gamma0(params, coupling, r - h) * gamma0(params, coupling, r + h) < 0, r


def scan_roots(params, coupling, lo=-10.0, hi=10.0, step=0.05):
    """Independent bisection oracle: bracket scan + brentq on gamma0."""
    grid = np.arange(lo, hi + step, step)
    vals = [gamma0(params, coupling, c) for c in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(lambda c: gamma0(params, coupling, c),
                                grid[i], grid[i + 1], xtol=1e-13))
    return roots


class TestGamma0:
    def test_pure_gamma_root(self):
        # with only a constant coupling the speed relation is c = 3 sqrt2 gamma / 2
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 0.5))
        for g in (0.3, -0.7, 0.02):
            c = Coupling(g, (0.0, 0.0), (0.0, 0.0))
            root = 3 * SQRT2 * g / 2
            assert gamma0(p, c, root) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_zero_is_gamma(self):
        p = SystemParams(epsilon=0.1, tau=(1.5,), d=(0.7,))
        c = Coupling(0.25, (1.0,), (3.0,), higher=(2.0, -1.0))
        assert gamma0(p, c, 0.0) == 0.25

    def test_cusp_roots_against_bisection_oracle(self, cusp_setup):
        params, coupling = cusp_setup
        oracle = scan_roots(params, coupling)
        assert len(oracle) == 3
        # frozen oracle values; the nonzero pair is +-2.289025 (spec: +-2.29 +- 0.01)
        assert oracle[0] == pytest.approx(-2.289025, abs=1e-4)
        assert oracle[1] == pytest.approx(0.0, abs=1e-10)
        assert oracle[2] == pytest.approx(2.289025, abs=1e-4)
        assert abs(oracle[2] - 2.29) < 0.01

        found = gamma0_roots(params, coupling, interval=(-10, 10))
        assert len(found) == 3
        for (root, mult), target in zip(found, oracle):
            assert root == pytest.approx(target, abs=1e-9)
            assert mult == 1

    def test_derivative_matches_finite_differences(self, cusp_setup):
        params, coupling = cusp_setup
        for c in (-1.3, 0.0, 0.4, 2.2):
            h = 1e-6
            fd = (gamma0(params, coupling, c + h) - gamma0(params, coupling, c - h)) / (2 * h)
            assert gamma0_derivative(params, coupling, c) == pytest.approx(fd, abs=1e-8)


    def test_array_form_equals_scalar_loop(self):
        # one evaluator: Gamma0 over an array of c is the written-out scalar
        # loop bit for bit (the same float operations), on the reference
        # sets and on random N = 1 sets with a univariate tail; Gamma0' over
        # an array is its own scalar view
        sets = [(p, c) for _name, p, c, _orders in reference_parameter_sets()]
        rng = np.random.default_rng(12)
        for _ in range(40):
            sets.append((SystemParams(epsilon=0.05, tau=(rng.uniform(0.3, 3),),
                                      d=(rng.uniform(0.3, 3),)),
                         Coupling(rng.uniform(-1, 1), (rng.uniform(-3, 3),),
                                  (rng.uniform(-2, 2),),
                                  tuple(rng.uniform(-2, 2, int(rng.integers(0, 5)))))))
        cs = np.linspace(-4.0, 4.0, 161)
        for params, coupling in sets:
            vals = gamma0(params, coupling, cs)
            assert vals.shape == cs.shape
            loop = [coupling([c * t / math.sqrt(4.0 * d * d + c * c * t * t)
                              for t, d in zip(params.tau, params.d)]) - SQRT2 / 3.0 * c
                    for c in cs.tolist()]
            assert np.array_equal(vals, loop)
            assert np.array_equal(vals, [gamma0(params, coupling, c) for c in cs.tolist()])
            slopes = gamma0_derivative(params, coupling, cs)
            assert np.array_equal(slopes,
                                  [gamma0_derivative(params, coupling, c) for c in cs.tolist()])
            assert v_star(params, cs[:, None]).shape == (params.n_slow, cs.size, 1)

class TestGamma0Roots:
    def test_zero_coupling(self):
        p = SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))
        c = Coupling(0.0, (0.0,), (0.0,))
        found = gamma0_roots(p, c, interval=(-2, 2))
        assert len(found) == 1
        assert found[0][0] == pytest.approx(0.0, abs=1e-12)
        assert found[0][1] == 1

    def test_pitchfork_multiplicity(self, pitchfork_set):
        params, coupling = pitchfork_set
        found = gamma0_roots(params, coupling, interval=(-0.5, 0.5))
        assert (0.0, 3) in [(round(r, 8), m) for r, m in found]

    def test_default_interval_always_contains_a_root(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            c = Coupling(rng.uniform(-5, 5), tuple(rng.uniform(-5, 5, n)),
                         tuple(rng.uniform(-5, 5, n)))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.5, 3, n)),
                             d=tuple(rng.uniform(0.5, 3, n)))
            radius = 3 * c.bound() * 3 / SQRT2 + 1
            found = gamma0_roots(p, c, interval=(-radius, radius))
            assert len(found) >= 1

    @pytest.mark.parametrize("speeds, double", FAULT_SETS)
    def test_planted_fault_sets(self, speeds, double):
        params, coupling = planted_coupling(0.5, speeds, double)
        found = gamma0_roots(params, coupling, interval=(-3, 3))
        assert len(found) == len(speeds)
        assert_planted_once(params, coupling, found, speeds, double)

    def test_speeds_on_piece_endpoints(self):
        # on [-3, 3] the pieces end at multiples of 0.375: -2.25 is an exact
        # zero there, and 0.75 comes back just outside both of its pieces
        speeds = (-2.25, -1.5, 0.2, 0.75, 2.0)
        params, coupling = planted_coupling(1.6, speeds)
        found = gamma0_roots(params, coupling, interval=(-3, 3))
        assert len(found) == len(speeds)
        assert_planted_once(params, coupling, found, speeds, None)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratio=st.sampled_from((0.5, 1.6)),
           spread=st.lists(st.floats(-2.7, 2.7), min_size=4, max_size=4, unique=True),
           gap=st.floats(PLANTED_GAP, 4 * PLANTED_GAP),
           double=st.sampled_from((None, 0, 1, 2, 3)))
    def test_planted_speeds_come_back_once(self, ratio, spread, gap, double):
        # five planted conditions: five speeds with one pair `gap` apart, or
        # four speeds with one of them planted twice
        speeds = sorted(spread + [spread[0] + gap])
        if double is not None:
            speeds.remove(spread[-1])
            double = speeds[double]
        gaps = np.diff(speeds)
        assume(gaps.min() >= PLANTED_GAP and np.sum(gaps < SPREAD_GAP) <= 1
               and max(map(abs, speeds)) <= 2.8)
        params, coupling = planted_coupling(ratio, speeds, double)
        found = gamma0_roots(params, coupling, interval=(-3, 3))
        assert_planted_once(params, coupling, found, speeds, double)

    def test_reference_set_root_lists(self):
        # each list as digits; the roots at 0 are exact zeros at a piece
        # endpoint
        want = {"transcritical": [(0.0, 2), (4.222497670882614, 1)],
                "pitchfork": [(-0.6890412483526043, 1), (0.0, 3), (3.4786093711707844, 1)],
                "maximal": [(0.0, 7)]}
        for name, params, coupling, _orders in reference_parameter_sets():
            found = gamma0_roots(params, coupling)
            assert [m for _r, m in found] == [m for _r, m in want[name]]
            for (r, _m), (w, _) in zip(found, want[name]):
                assert r == w if w == 0.0 else abs(r - w) <= 1e-10

    def test_proxy_level_cap_names_the_interval(self):
        # branch points 2e-12 from the real axis need more halvings than
        # the cap allows
        p = SystemParams(epsilon=0.05, tau=(1e12,), d=(1.0,))
        with pytest.raises(FrontlabError, match=r"no Chebyshev proxy on \[-3, 3\]"):
            gamma0_roots(p, Coupling(0.1, (1.0,), (0.5,)), interval=(-3, 3))

    def test_steep_root_near_zero_is_simple(self):
        # tau/d = 1e6: Gamma0 crosses zero within 1e-6 of c = 0, where its
        # Taylor coefficients grow like (d/tau)^-k
        p = SystemParams(epsilon=0.05, tau=(1e6,), d=(1.0,))
        coupling = Coupling(0.1, (1.0,), (0.5,))
        found = gamma0_roots(p, coupling, interval=(-3, 3))
        assert [m for _r, m in found] == [1, 1]
        assert found[0][0] == pytest.approx(-0.6 * SQRT2, rel=1e-12)
        v = -1.0 + math.sqrt(0.8)        # 0.1 + v + v^2 / 2 = 0 at the plateau value
        assert found[1][0] == pytest.approx(2.0 * v / (1e6 * math.sqrt(1.0 - v * v)),
                                            rel=1e-6)

    def test_empty_report_carries_endpoints(self):
        p = SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))
        c = Coupling(5.0, (0.0,), (0.0,))
        found = gamma0_roots(p, c, interval=(-1, 1))  # root at 10.6, outside
        assert len(found) == 0
        assert found.endpoint_values is not None
        assert found.endpoint_values[0] > 0 and found.endpoint_values[1] > 0


class TestGamma0Taylor:
    def test_negative_order_rejected(self, one_slow):
        with pytest.raises(FrontlabError, match="Taylor order must be >= 0, got -2"):
            gamma0_taylor(one_slow, Coupling(0.0, (1.0,), (0.0,)), -2)

    def test_one_slow_general_coefficients(self):
        # sympy series oracle for the full composition
        sympy = pytest.importorskip("sympy")
        tau, d = 1.0, 1.0
        g, a, b, kap, rho = 0.3, 1.7, -0.9, 0.5, 1.1
        p = SystemParams(epsilon=0.1, tau=(tau,), d=(d,))
        coup = Coupling(g, (a,), (b,), higher=(kap, rho))
        series = gamma0_taylor(p, coup, 4)

        c = sympy.symbols("c")
        v = c * tau / sympy.sqrt(4 * d ** 2 + c ** 2 * tau ** 2)
        f = g + a * v + b * v ** 2 + kap * v ** 3 + rho * v ** 4 - sympy.sqrt(2) / 3 * c
        oracle = sympy.series(f, c, 0, 5).removeO()
        for k in range(5):
            want = float(oracle.coeff(c, k))
            assert series.coefficient(k) == pytest.approx(want, rel=1e-12, abs=1e-14)

        # closed-form expectations for tau = d = 1
        assert series.coefficient(0) == pytest.approx(g)
        assert series.coefficient(1) == pytest.approx(a / 2 - SQRT2 / 3)
        assert series.coefficient(2) == pytest.approx(b / 4)
        assert series.coefficient(3) == pytest.approx((2 * kap - a) / 16)
        assert series.coefficient(4) == pytest.approx((rho - b) / 16)

    def test_quadratic_class_closed_form(self):
        # even/odd coefficient formulas for the diagonal-quadratic class
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.5, 3, n)),
                             d=tuple(rng.uniform(0.5, 3, n)))
            coup = Coupling(rng.uniform(-1, 1), tuple(rng.uniform(-2, 2, n)),
                            tuple(rng.uniform(-2, 2, n)))
            series = gamma0_taylor(p, coup, 7)
            r = np.asarray(p.tau) / np.asarray(p.d)
            alpha = np.asarray(coup.alpha)
            beta = np.asarray(coup.beta)
            assert series.coefficient(0) == pytest.approx(coup.gamma, rel=1e-14)
            assert series.coefficient(1) == pytest.approx(
                0.5 * np.sum(alpha * r) - SQRT2 / 3, rel=1e-12, abs=1e-14)
            for k in (1, 2, 3):
                even = (-1) ** (k + 1) * 2.0 ** (-2 * k) * np.sum(beta * r ** (2 * k))
                assert series.coefficient(2 * k) == pytest.approx(even, rel=1e-12, abs=1e-14)
            for k in (1, 2, 3):
                odd = ((-1) ** k * double_factorial(2 * k - 1)
                       / (double_factorial(2 * k) * 2.0 ** (2 * k + 1))
                       * np.sum(alpha * r ** (2 * k + 1)))
                assert series.coefficient(2 * k + 1) == pytest.approx(odd, rel=1e-12, abs=1e-14)

    def test_order_zero_is_the_value_at_zero(self):
        p = SystemParams(epsilon=0.1, tau=(1.5,), d=(0.7,))
        c = Coupling(0.25, (1.0,), (3.0,), higher=(2.0, -1.0))
        assert gamma0_taylor(p, c, 0).coeffs == (0.25,)

    def test_reference_set_orders(self, transcritical_set, maximal_set):
        params, coupling = transcritical_set
        series = gamma0_taylor(params, coupling, 2)
        assert abs(series.coefficient(0)) <= 1e-12
        assert abs(series.coefficient(1)) <= 1e-12
        assert abs(series.coefficient(2)) > 1e-6

        params, coupling = maximal_set
        series = gamma0_taylor(params, coupling, 7)
        assert max(abs(series.coefficient(k)) for k in range(7)) <= 1e-12
        assert abs(series.coefficient(7)) > 1e-6

    def test_matches_richardson_differences(self, cusp_setup):
        params, coupling = cusp_setup
        series = gamma0_taylor(params, coupling, 5)
        h = 1e-3

        def deriv(order):
            # central differences with one Richardson extrapolation step
            def d_at(step):
                if order == 1:
                    return (gamma0(params, coupling, step) - gamma0(params, coupling, -step)) / (2 * step)
                if order == 2:
                    return (gamma0(params, coupling, step) - 2 * gamma0(params, coupling, 0)
                            + gamma0(params, coupling, -step)) / step ** 2
                if order == 3:
                    return (gamma0(params, coupling, 2 * step) - 2 * gamma0(params, coupling, step)
                            + 2 * gamma0(params, coupling, -step)
                            - gamma0(params, coupling, -2 * step)) / (2 * step ** 3)
                if order == 4:
                    return (gamma0(params, coupling, 2 * step) - 4 * gamma0(params, coupling, step)
                            + 6 * gamma0(params, coupling, 0)
                            - 4 * gamma0(params, coupling, -step)
                            + gamma0(params, coupling, -2 * step)) / step ** 4
                raise ValueError(order)
            return (4 * d_at(h / 2) - d_at(h)) / 3

        for k in range(1, 5):
            want = deriv(k) / math.factorial(k)
            got = series.coefficient(k)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_odd_symmetry_affine(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.5, 3, n)),
                             d=tuple(rng.uniform(0.5, 3, n)))
            coup = Coupling(0.0, tuple(rng.uniform(-3, 3, n)), (0.0,) * n)
            for c in rng.uniform(-3, 3, 5):
                assert gamma0(p, coup, -c) == pytest.approx(-gamma0(p, coup, c), abs=1e-14)

    def test_recentred_series_recurrence(self):
        # gamma0_taylor is the recentred series at 0; elsewhere the three-term
        # recurrence gives what the binomial composition it replaced gave

        def rsqrt_composed(w):
            """(1 + w)^(-1/2) for w without constant term: the binomial series
            b_k = b_(k-1) (1/2 - k) / k, composed with w by Horner's rule."""
            b = [1.0]
            for k in range(1, w.order + 1):
                b.append(b[-1] * (-0.5 - (k - 1)) / k)
            out = PowerSeries.from_coeffs([b[-1]], w.order)
            for c in reversed(b[:-1]):
                out = out * w + c
            return out

        def composed(params, coupling, center, order):
            vj = []
            for tau, d in zip(params.tau, params.d):
                a = 4.0 * d * d + tau * tau * center * center
                w = PowerSeries.from_coeffs([0.0, 2.0 * tau * tau * center / a,
                                             tau * tau / a], order)
                y = (1.0 / math.sqrt(a)) * rsqrt_composed(w)
                vj.append(tau * PowerSeries.from_coeffs([center, 1.0], order) * y)
            return eval_coupling(coupling, vj) + PowerSeries.from_coeffs(
                [-SQRT2 / 3.0 * center, -SQRT2 / 3.0], order)

        for _name, params, coupling, _orders in reference_parameter_sets():
            assert (gamma0_taylor(params, coupling, 9).coeffs
                    == gamma0_series_at(params, coupling, 0.0, 9).coeffs)
            for center in (0.7, -2.3, 5.0):
                old = np.array(composed(params, coupling, center, 9).coeffs)
                new = np.array(gamma0_series_at(params, coupling, center, 9).coeffs)
                assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))

    def test_recentred_series_consistent(self, cusp_setup):
        params, coupling = cusp_setup
        center = 0.8
        series = gamma0_series_at(params, coupling, center, 6)
        for s in (-0.05, 0.0, 0.03):
            assert series(s) == pytest.approx(gamma0(params, coupling, center + s),
                                              rel=1e-9, abs=1e-12)


class TestFrontProfile:
    def test_stationary_closed_form(self):
        p = SystemParams(epsilon=0.04, tau=(1.0, 2.0), d=(1.0, 0.5))
        coup = Coupling(0.0, (0.0, 0.0), (0.0, 0.0))
        prof = front_profile(p, coup, 0.0)
        assert prof.v_star == (0.0, 0.0)
        for j, d in enumerate(p.d, start=1):
            assert prof.lambda_plus[j - 1] == pytest.approx(1.0 / d)
            assert prof.lambda_minus[j - 1] == pytest.approx(-1.0 / d)
            y = 1.7
            assert prof.v(j, y) == pytest.approx(1.0 - math.exp(-y / d), rel=1e-12)
            assert prof.v(j, -y) == pytest.approx(-1.0 + math.exp(-y / d), rel=1e-12)

    def test_vieta_product(self, cusp_setup):
        params, coupling = cusp_setup
        for c in (-2.289025, 0.0, 2.289025, 5.0):
            prof = front_profile(params, coupling, c, residual_tol=np.inf)
            for j in range(params.n_slow):
                prod = prof.lambda_plus[j] * prof.lambda_minus[j]
                assert prod == pytest.approx(-1.0 / params.d[j] ** 2, rel=1e-13)

    def test_plateau_limit_large_speed(self):
        p = SystemParams(epsilon=0.04, tau=(1.0, 3.0), d=(1.0, 0.5))
        assert np.all(v_star(p, 1e6) > 1 - 1e-9)

    def test_warns_off_root(self, cusp_setup):
        params, coupling = cusp_setup
        with pytest.warns(UserWarning):
            front_profile(params, coupling, 1.0)

    def test_continuity_at_interface_edges(self):
        for eps in (0.05, 0.02, 0.01):
            p = SystemParams(epsilon=eps, tau=(1.0, 2.25), d=(1.0, 1.5))
            coup = Coupling(0.1, (0.3, -0.2), (0.0, 0.0))
            roots = gamma0_roots(p, coup)
            prof = front_profile(p, coup, roots[0][0])
            w = math.sqrt(eps)
            for j in (1, 2):
                for side in (+1, -1):
                    inner = prof.v(j, side * (w * (1 - 1e-12)))
                    outer = prof.v(j, side * (w * (1 + 1e-12)))
                    assert abs(inner - outer) <= 5 * w


class TestFoldCurves:
    def test_cusp_point(self, one_slow):
        # brute-force oracle: scan the (alpha, gamma) plane for sign structure of
        # the 2-equation system resolved in c
        template = Coupling(0.0, (0.0,), (0.0,), higher=(-1.0,))
        branches = fold_curves(one_slow, template, ("alpha1", "gamma"),
                               (0.5, 3.0, -1.0, 1.0), n_c=2001, c_range=(-3, 3))
        assert branches
        pts = np.vstack([np.asarray(b.points) for b in branches])
        cs = np.concatenate([np.asarray(b.c_values) for b in branches])
        # the two fold arcs meet at the cusp point (2 sqrt2/3, 0) at c = 0
        i0 = np.argmin(np.abs(cs))
        assert pts[i0, 0] == pytest.approx(2 * SQRT2 / 3, abs=2e-3)
        assert pts[i0, 1] == pytest.approx(0.0, abs=2e-3)
        assert pts[:, 1].max() > 0.1 and pts[:, 1].min() < -0.1

        # brute-force grid check: every reported fold point nearly solves both equations
        from frontlab.existence import gamma0 as g0, gamma0_derivative as dg0
        for (a, g), c in zip(pts[::100], cs[::100]):
            coup = Coupling(g, (a,), (0.0,), higher=(-1.0,))
            assert abs(g0(one_slow, coup, c)) < 1e-10
            assert abs(dg0(one_slow, coup, c)) < 1e-10

    def test_butterfly_symmetry(self):
        # two slow components, quadratic term absent: fold set symmetric under
        # (alpha_1, gamma, c) -> (alpha_1, -gamma, -c)
        p = SystemParams(epsilon=0.1, tau=(1.0, 5.0), d=(1.0, 2.0))
        template = Coupling(0.0, (0.0, 4.0), (0.0, 0.0))
        branches = fold_curves(p, template, ("alpha1", "gamma"),
                               (-6.0, 6.0, -3.0, 3.0), n_c=4001, c_range=(-4, 4))
        pts = np.vstack([np.asarray(b.points) for b in branches])
        cs = np.concatenate([np.asarray(b.c_values) for b in branches])
        from frontlab.existence import gamma0 as g0, gamma0_derivative as dg0
        for (a, g), c in zip(pts[::37], cs[::37]):
            # the mirrored parameters must solve the fold system at -c
            coup = Coupling(-g, (a, 4.0), (0.0, 0.0))
            assert abs(g0(p, coup, -c)) < 1e-9
            assert abs(dg0(p, coup, -c)) < 1e-9

    def test_zero_coupling_has_no_folds(self, one_slow):
        template = Coupling(0.0, (0.0,), (0.0,))
        branches = fold_curves(one_slow, template, ("beta1", "gamma"),
                               (-1.0, 1.0, -1.0, 1.0), n_c=501, c_range=(-2, 2))
        # dGamma0/dc = -sqrt2/3 cannot vanish with beta and gamma alone on the
        # line beta*...: the solve can only place folds where the 2x2 system is
        # consistent; no point of the returned set may actually be spurious
        for b in branches:
            for (beta, g), c in zip(b.points, b.c_values):
                coup = Coupling(g, (0.0,), (beta,))
                from frontlab.existence import gamma0_derivative as dg0
                assert abs(dg0(one_slow, coup, c)) < 1e-9
