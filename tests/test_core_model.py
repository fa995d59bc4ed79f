import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import (Coupling, FrontlabError, PowerSeries, SystemParams,
                      coupling_gradient, eval_coupling, series_vstar)
from frontlab.core_model import PAIR_TOL, REAL_IMAG_TOL, conjugate_pairs
from oracles import double_factorial

SQRT2 = math.sqrt(2.0)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(FrontlabError):
            SystemParams(epsilon=-0.1, tau=(1.0,), d=(1.0,))
        with pytest.raises(FrontlabError):
            SystemParams(epsilon=0.1, tau=(1.0, -2.0), d=(1.0, 1.0))
        with pytest.raises(FrontlabError):
            SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0,))

    @pytest.mark.parametrize("kwargs", [
        {"tau": (1e309,)}, {"d": (float("nan"),)}, {"epsilon": float("inf")}])
    def test_rejects_non_finite(self, kwargs):
        base = {"epsilon": 0.1, "tau": (1.0,), "d": (1.0,)}
        with pytest.raises(FrontlabError, match="must be finite"):
            SystemParams(**{**base, **kwargs})

    def test_distinctness_flags(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        assert p.pairwise_distinct_tau
        assert p.pairwise_distinct_ratio
        q = SystemParams(epsilon=0.1, tau=(1.0, 1.0 + 1e-12), d=(1.0, 1.0))
        assert not q.pairwise_distinct_tau
        # distinct tau but coincident ratios tau/d
        r = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 2.0))
        assert r.pairwise_distinct_tau
        assert not r.pairwise_distinct_ratio

    def test_n_slow_follows_tau(self):
        assert [f.name for f in fields(SystemParams)] == ["epsilon", "tau", "d"]
        p = SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))
        q = replace(p, tau=(1.0, 2.0), d=(1.0, 1.0))
        assert (p.n_slow, q.n_slow) == (1, 2)
        assert replace(q, tau=(3.0,), d=(1.0,)).n_slow == 1


class TestCoupling:
    def test_eval_zero(self):
        c = Coupling(0.0, (0.0, 0.0), (0.0, 0.0))
        assert eval_coupling(c, np.array([0.7, -0.3])) == 0.0

    def test_eval_affine(self):
        c = Coupling(1.0, (2.0, 0.0), (0.0, 0.0))
        assert eval_coupling(c, np.array([3.0, 5.0])) == 7.0

    def test_eval_univariate_cubic(self):
        # direct polynomial evaluation oracle: 2*0.5 - 1*0.5**3
        c = Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
        expected = np.polyval([-1.0, 0.0, 2.0, 0.0], 0.5)
        assert eval_coupling(c, np.array([0.5])) == pytest.approx(expected, abs=1e-15)
        assert expected == 0.875

    def test_gradient_affine(self):
        c = Coupling(0.3, (1.0, -2.0, 0.5), (0.0, 0.0, 0.0))
        v = np.array([0.1, 0.4, -0.2])
        assert np.allclose(coupling_gradient(c, v), [1.0, -2.0, 0.5])

    def test_gradient_quadratic(self):
        c = Coupling(0.0, (0.5, 0.0), (1.0, 0.0))
        grad = coupling_gradient(c, np.array([0.3, 0.1]))
        assert grad[0] == pytest.approx(0.5 + 0.6, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        # central differences, step 1e-6, agreement 1e-8
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            higher = tuple(rng.uniform(-2, 2, rng.integers(0, 3))) if n == 1 else ()
            c = Coupling(rng.uniform(-2, 2), tuple(rng.uniform(-5, 5, n)),
                         tuple(rng.uniform(-5, 5, n)), higher=higher)
            v = rng.uniform(-1, 1, n)
            grad = coupling_gradient(c, v)
            h = 1e-6
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (eval_coupling(c, v + e) - eval_coupling(c, v - e)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-8

    def test_higher_requires_single_component(self):
        with pytest.raises(FrontlabError):
            Coupling(0.0, (1.0, 1.0), (0.0, 0.0), higher=(1.0,))

    @pytest.mark.parametrize("kwargs", [
        {"alpha": (float("nan"),)}, {"higher": (float("inf"),)},
        {"gamma": 1e309}, {"beta": (-float("inf"),)}])
    def test_rejects_non_finite(self, kwargs):
        base = {"gamma": 0.0, "alpha": (1.0,), "beta": (0.0,)}
        with pytest.raises(FrontlabError, match="must be finite"):
            Coupling(**{**base, **kwargs})


_NAMES_N3 = ["gamma", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"]


class TestCouplingParam:
    coupling = Coupling(0.5, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0))

    def test_values(self):
        assert [self.coupling.param(name) for name in _NAMES_N3] == [
            0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("name", _NAMES_N3)
    def test_round_trip(self, name):
        changed = self.coupling.with_param(name, -7.25)
        assert changed.param(name) == -7.25
        for other in _NAMES_N3:
            if other != name:
                assert changed.param(other) == self.coupling.param(other)
        assert changed.with_param(name, self.coupling.param(name)) == self.coupling

    def test_keeps_the_tail(self):
        cubic = Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
        assert cubic.with_param("beta1", 0.5).higher == (-1.0,)

    @pytest.mark.parametrize("name", ["alpha0", "alpha4", "alpha01", "beta", "higher3",
                                      "delta", ""])
    def test_bad_names(self, name):
        with pytest.raises(FrontlabError, match="coupling parameter"):
            self.coupling.param(name)
        with pytest.raises(FrontlabError, match="coupling parameter"):
            self.coupling.with_param(name, 1.0)

    def test_non_finite_value(self):
        with pytest.raises(FrontlabError, match="must be finite"):
            self.coupling.with_param("alpha2", float("nan"))


_coef = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _coupling_and_grid(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    tail = draw(st.lists(_coef, min_size=1, max_size=3)) \
        if n == 1 and draw(st.booleans()) else []
    coupling = Coupling(draw(_coef), tuple(draw(st.lists(_coef, min_size=n, max_size=n))),
                        tuple(draw(st.lists(_coef, min_size=n, max_size=n))),
                        higher=tuple(tail))
    n_x = draw(st.integers(1, 6))
    cells = draw(st.lists(st.floats(-1.5, 1.5, allow_nan=False),
                          min_size=n * n_x, max_size=n * n_x))
    return coupling, np.array(cells).reshape(n, n_x)


class TestOneEvaluator:
    """eval_coupling and coupling_gradient give the same numbers on every form."""

    @settings(max_examples=150, deadline=None)
    @given(_coupling_and_grid())
    def test_grid_equals_columns(self, case):
        coupling, grid = case
        values = eval_coupling(coupling, grid)
        grads = coupling_gradient(coupling, grid)
        assert values.shape == grid.shape[1:] and grads.shape == grid.shape
        for k in range(grid.shape[1]):
            assert values[k] == eval_coupling(coupling, grid[:, k])
            assert np.array_equal(grads[:, k], coupling_gradient(coupling, grid[:, k]))

    @settings(max_examples=150, deadline=None)
    @given(_coupling_and_grid())
    def test_constant_series_equal_vector(self, case):
        coupling, grid = case
        v = grid[:, 0]
        series = [PowerSeries.from_coeffs([vj], 4) for vj in v]
        value = eval_coupling(coupling, series)
        assert value.coeffs[0] == eval_coupling(coupling, v)
        assert value.coeffs[1:] == (0.0,) * 4
        grads = coupling_gradient(coupling, series)
        assert [g.coeffs[0] for g in grads] == list(coupling_gradient(coupling, v))

    def test_series_matches_polynomial(self):
        # F(t, -2t) for F = 1 + 2 V1 - V2 + 3 V1^2 + V2^2: 1 + 4t + 7t^2
        coupling = Coupling(1.0, (2.0, -1.0), (3.0, 1.0))
        t = PowerSeries((0.0, 1.0, 0.0, 0.0))
        assert eval_coupling(coupling, [t, -2.0 * t]).coeffs == (1.0, 4.0, 7.0, 0.0)
        grads = coupling_gradient(coupling, [t, -2.0 * t])
        assert [g.coeffs for g in grads] == [(2.0, 6.0, 0.0, 0.0), (-1.0, -4.0, 0.0, 0.0)]

    def test_component_count_checked(self):
        coupling = Coupling(0.0, (1.0, 2.0), (0.0, 0.0))
        for bad in (np.zeros(3), np.zeros((1, 5)), 0.5, [PowerSeries((1.0,))]):
            with pytest.raises(FrontlabError, match="expected 2 components"):
                eval_coupling(coupling, bad)
            with pytest.raises(FrontlabError, match="expected 2 components"):
                coupling_gradient(coupling, bad)


class TestPowerSeries:
    def test_arithmetic_commutes_and_associates(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            order = int(rng.integers(3, 21))
            a = PowerSeries(tuple(rng.uniform(-1, 1, order + 1)))
            b = PowerSeries(tuple(rng.uniform(-1, 1, order + 1)))
            c = PowerSeries(tuple(rng.uniform(-1, 1, order + 1)))
            ab = a * b
            ba = b * a
            assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-12, atol=1e-12)
            left = (a * b) * c
            right = a * (b * c)
            assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)


class TestSeriesVstar:
    # Binomial-series oracle computed with exact rationals:
    # coefficient of c^(2k+1) is (-1)^k (2k-1)!!/(2k)!! (tau/(2d))^(2k+1).
    def _oracle(self, tau, d, order):
        coeffs = [Fraction(0)] * (order + 1)
        u = Fraction(tau) / (2 * Fraction(d))
        k = 0
        while 2 * k + 1 <= order:
            coeffs[2 * k + 1] = ((-1) ** k
                                 * Fraction(double_factorial(2 * k - 1),
                                            double_factorial(2 * k)) * u ** (2 * k + 1))
            k += 1
        return [float(c) for c in coeffs]

    def test_unit_parameters(self, one_slow):
        s = series_vstar(one_slow, 1, 5)
        assert s.coeffs == (0.0, 0.5, 0.0, -0.0625, 0.0, 0.01171875)
        assert np.allclose(s.coeffs, self._oracle(1, 1, 5))

    def test_zero_constant_and_odd(self):
        p = SystemParams(epsilon=0.1, tau=(1.3, 0.8), d=(0.9, 2.0))
        for j in (1, 2):
            s = series_vstar(p, j, 9)
            assert s.coeffs[0] == 0.0
            assert all(s.coeffs[k] == 0.0 for k in range(0, 10, 2))
            assert np.allclose(s.coeffs, self._oracle(p.tau[j - 1], p.d[j - 1], 9))

    def test_agrees_with_closed_form_at_small_c(self):
        p = SystemParams(epsilon=0.1, tau=(2.0,), d=(1.5,))
        for order in (3, 5, 7, 9):
            s = series_vstar(p, 1, order)
            for c in np.linspace(-0.1 * p.d[0] / p.tau[0], 0.1 * p.d[0] / p.tau[0], 11):
                exact = c * p.tau[0] / math.sqrt(4 * p.d[0] ** 2 + (c * p.tau[0]) ** 2)
                assert abs(s(c) - exact) <= 10 * abs(c) ** (order + 1) + 1e-16

    def test_index_bounds(self, one_slow):
        with pytest.raises(FrontlabError):
            series_vstar(one_slow, 2, 5)


def test_conjugate_pairs_tidies_a_perturbed_pair():
    # a pair perturbed at rounding level becomes exact around its mean; a
    # lone value next to the real axis becomes real, a lone value off it
    # (or a real one) stays as it is
    pair = (0.03 + 0.4j) * (1 + 3e-15), (0.03 - 0.4j) * (1 - 2e-15)
    near_real = -0.05 + 0.5j * REAL_IMAG_TOL
    vals = conjugate_pairs([pair[1], 0.7, near_real, pair[0], 0.2 + 1e-3j])
    assert vals[3] == 0.5 * (pair[0] + np.conj(pair[1]))
    assert vals[0] == np.conj(vals[3])
    assert vals[2] == -0.05 and vals[2].imag == 0.0
    assert vals[1] == 0.7 and vals[4] == 0.2 + 1e-3j
    assert conjugate_pairs([]).shape == (0,)


def test_conjugate_pairs_leaves_a_lone_value_next_to_a_distinct_pair():
    # 0.2 + 0.3j has its partner outside the set: the nearest lower value
    # to its conjugate, 0.2 - 0.05j, is 0.25 away, a distinct root and not
    # rounding, so neither it nor the exact pair 0.2 +- 0.05j moves
    vals = [0.2 + 0.3j, 0.2 + 0.05j, 0.2 - 0.05j]
    for order in (vals, vals[::-1], [vals[1], vals[0], vals[2]]):
        assert list(conjugate_pairs(order)) == order
    # a lower value just outside PAIR_TOL of an upper one's conjugate is not
    # its partner, just inside it is
    z = 0.4 + 0.3j
    far = conjugate_pairs([z, np.conj(z) + 2 * PAIR_TOL])
    assert list(far) == [z, np.conj(z) + 2 * PAIR_TOL]
    near = conjugate_pairs([z, np.conj(z) + 0.5 * PAIR_TOL])
    assert near[1] == np.conj(near[0]) and abs(near[0] - z) < PAIR_TOL
