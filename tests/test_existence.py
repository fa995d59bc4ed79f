import math

import numpy as np
import pytest
from scipy.optimize import brentq

from frontlab import Coupling, SystemParams, fold_curves, front_profile, gamma0, gamma0_roots, gamma0_taylor
from frontlab.core_model import double_factorial
from frontlab.existence import gamma0_derivative, gamma0_series_at, v_star

SQRT2 = math.sqrt(2.0)


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
        from conftest import reference_sets
        sets = [(p, c) for _name, p, c, _orders in reference_sets()]
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

    def test_empty_report_carries_endpoints(self):
        p = SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))
        c = Coupling(5.0, (0.0,), (0.0,))
        found = gamma0_roots(p, c, interval=(-1, 1))  # root at 10.6, outside
        assert len(found) == 0
        assert found.endpoint_values is not None
        assert found.endpoint_values[0] > 0 and found.endpoint_values[1] > 0


class TestGamma0Taylor:
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
