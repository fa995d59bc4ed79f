import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from frontlab import (Coupling, FrontlabError, JordanPolynomial, SystemParams,
                      chain_profile, design_evans_degeneracy, eigenfunction_c0,
                      jordan_poly, verify_chain_ode)
from frontlab.jordan_chain import (chain_prefactor, jordan_coeffs_closed,
                                   jordan_coeffs_recurrence)
from oracles import double_factorial

SQRT2 = math.sqrt(2.0)


class TestJordanPolynomials:
    def test_printed_low_order_forms(self):
        # v^1 = -(tau/2d)(1+x)e^-x, v^2 = (3 tau^2/8d)(1+x+x^2/3)e^-x,
        # v^3 = -(5 tau^3/16d)(1+x+2x^2/5+x^3/15)e^-x,
        # v^4 = (35 tau^4/128 d)(1+x+3x^2/7+2x^3/21+x^4/105)e^-x
        expected = {
            1: (Fraction(-1, 2), [1, 1]),
            2: (Fraction(3, 8), [1, 1, Fraction(1, 3)]),
            3: (Fraction(-5, 16), [1, 1, Fraction(2, 5), Fraction(1, 15)]),
            4: (Fraction(35, 128), [1, 1, Fraction(3, 7), Fraction(2, 21),
                                    Fraction(1, 105)]),
        }
        for j, (pref, coeffs) in expected.items():
            poly = jordan_poly(j, 1.0, 1.0)
            assert chain_prefactor(j) == pref
            assert list(poly.coeffs) == [Fraction(c) for c in coeffs]

    def test_base_case(self):
        poly = jordan_poly(0, 1.7, 2.3)
        assert poly.coeffs == (Fraction(1),)
        assert poly.prefactor == 1.0
        assert poly.v_plus(0.9) == pytest.approx(math.exp(-0.9) / 2.3, rel=1e-14)

    def test_symmetry_coefficients(self):
        for j in range(1, 13):
            coeffs = jordan_coeffs_closed(j)
            assert coeffs[0] == 1
            assert coeffs[1] == 1

    def test_leading_coefficient_identity(self):
        for j in range(1, 13):
            assert jordan_coeffs_closed(j)[j] * double_factorial(2 * j - 1) == 1

    def test_recurrences_exact(self):
        # both recurrence relations hold exactly in rational arithmetic
        for j in range(13):
            closed = jordan_coeffs_closed(j)
            assert closed == jordan_coeffs_recurrence(j)
            if j >= 1:
                prev = jordan_coeffs_closed(j - 1)
                assert closed[j] == prev[j - 1] / (2 * j - 1)
                for i in range(j - 1):
                    lhs = Fraction(2 * j, 2 * j - 1) * prev[i]
                    rhs = 2 * (i + 1) * closed[i + 1] - (i + 1) * (i + 2) * closed[i + 2]
                    assert lhs == rhs


class TestChainOde:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.89])
    def test_residuals_below_fd_floor(self, tau):
        for j in range(1, 7):
            report = verify_chain_ode(jordan_poly(j, tau, 1.0),
                                      jordan_poly(j - 1, tau, 1.0))
            assert report.max_residual <= 1e-6
            assert report.derivative_mismatch <= 1e-8

    def test_base_exponential(self):
        report = verify_chain_ode(jordan_poly(1, 1.0, 1.0), jordan_poly(0, 1.0, 1.0))
        assert report.max_residual <= 1e-8

    def test_kinked_reflection_is_reported(self):
        # a^0 != a^1: v = -(1/2)(1 + x/2) e^-x mirrors with slope jump 2 |v'(0+)| = 1/2
        kinked = JordanPolynomial(j=1, tau=1.0, d=1.0, coeffs=(Fraction(1), Fraction(1, 2)))
        report = verify_chain_ode(kinked, jordan_poly(0, 1.0, 1.0))
        assert report.derivative_mismatch > 0.1
        assert report.derivative_mismatch == pytest.approx(0.5, rel=1e-6)


class TestEigenfunction:
    def test_lambda_zero_closed_form(self):
        p = SystemParams(epsilon=0.04, tau=(1.0, 2.0), d=(1.3, 0.7))
        prof = eigenfunction_c0(p, 0.0)
        for j, d in enumerate(p.d, start=1):
            assert prof.plateau(j) == pytest.approx(1.0 / d)
            y = 2.2
            assert np.real(prof.v(j, y)) == pytest.approx(math.exp(-y / d) / d, rel=1e-12)
            assert np.real(prof.v(j, -y)) == pytest.approx(math.exp(-y / d) / d, rel=1e-12)

    def test_value_at_origin_region(self):
        p = SystemParams(epsilon=0.04, tau=(1.5,), d=(0.9,))
        lam = 0.3 + 0.1j
        prof = eigenfunction_c0(p, lam)
        h = p.d[0] * np.sqrt(p.tau[0] * lam + 1)
        assert prof.v(1, 0.0) == pytest.approx(1.0 / h, rel=1e-14)

    def test_decay_direction(self):
        p = SystemParams(epsilon=0.04, tau=(2.0,), d=(1.0,))
        for lam in (-0.3, 0.0, 1.5):
            prof = eigenfunction_c0(p, lam)
            h = p.d[0] * np.sqrt(p.tau[0] * lam + 1)
            assert (h / p.d[0] ** 2).real > 0
            assert abs(prof.v(1, 8.0)) < abs(prof.v(1, 2.0))

    def test_branch_guard(self):
        p = SystemParams(epsilon=0.04, tau=(2.0,), d=(1.0,))
        with pytest.raises(FrontlabError):
            eigenfunction_c0(p, -1.0)

    def test_fast_component_shape(self):
        p = SystemParams(epsilon=0.04, tau=(1.0,), d=(1.0,))
        prof = eigenfunction_c0(p, 0.0)
        eps = p.epsilon
        assert prof.u(0.0) == pytest.approx(SQRT2 / (2 * eps))
        assert prof.u(2 * math.sqrt(eps)) == 0.0


class TestChainProfile:
    def test_k0_reduces_to_eigenfunction(self, transcritical_set):
        params, coupling = transcritical_set
        prof = chain_profile(params, coupling, 0, 3)
        ref = eigenfunction_c0(params, 0.0, coupling)
        y = np.linspace(-3, 3, 11)
        assert np.allclose(np.real(prof.v(1, y)), np.real(ref.v(1, y)))

    def test_k0_fast_component_on_the_cli_domain(self, transcritical_set):
        # `frontlab jordan` samples 2001 points on [-20, 20] (eps = 0.03):
        # the sech^2 mode is evaluated inside the interface alone, without
        # overflowing cosh^2 far outside it
        params, coupling = transcritical_set
        eps = params.epsilon
        prof = chain_profile(params, coupling, 0, 3)
        y = np.linspace(-20.0, 20.0, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = prof.u(y)
        inside = np.abs(y) <= math.sqrt(eps)
        assert np.array_equal(u[inside], SQRT2 / (2.0 * eps)
                              / np.cosh(y[inside] / (SQRT2 * eps)) ** 2)
        assert not u[~inside].any()

    def test_k1_plateau_and_fast_value(self, transcritical_set):
        params, coupling = transcritical_set
        prof = chain_profile(params, coupling, 1, 3)
        for j in range(1, 4):
            want = -params.tau[j - 1] / (2.0 * params.d[j - 1])
            assert prof.plateau(j) == pytest.approx(want, rel=1e-14)
            assert prof.v(j, 0.0) == pytest.approx(want, rel=1e-14)
        assert prof.fast_value == pytest.approx(params.epsilon / (3 * SQRT2))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_slow_components_are_even(self, transcritical_set, k):
        # the reflection is applied once, in ChainProfile: v(j, y) and v(j, -y)
        # are the same bits inside and outside the interface
        params, coupling = transcritical_set
        prof = chain_profile(params, coupling, k, 3)
        y = np.linspace(0.0, 6.0, 61)
        for j in range(1, 4):
            assert np.array_equal(prof.v(j, y), prof.v(j, -y))
            assert prof.v(j, 0.7) == prof.v(j, -0.7)

    def test_k2_slow_profile_matches_polynomial(self, transcritical_set):
        params, coupling = transcritical_set
        prof = chain_profile(params, coupling, 2, 3)
        poly = jordan_poly(2, params.tau[1], params.d[1])
        for y in (0.5, 1.5, 4.0):
            assert prof.v(2, y) == pytest.approx(poly.v_plus(y / params.d[1]), rel=1e-13)
            assert prof.v(2, -y) == pytest.approx(prof.v(2, y), rel=1e-13)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_chain_ends_where_the_designed_root_does(self, transcritical_set, ell):
        # evans:ell on the reference tau, d makes E0's Taylor coefficients
        # 1..ell vanish at c = 0 and coefficient ell+1 not: the chain builds
        # for every k <= ell and stops at order ell+1
        params, _ = transcritical_set
        alpha = design_evans_degeneracy(params, ell)
        coupling = Coupling(0.0, tuple(alpha), (0.0,) * 3)
        for k in range(ell + 1):
            assert chain_profile(params, coupling, k, 3).k == k
        with pytest.raises(FrontlabError, match=rf"order {ell + 1}: E0's Taylor coefficient "
                                                rf".* \(needs multiplicity >= {ell + 2} zero"):
            chain_profile(params, coupling, ell + 1, 3)

    def test_violated_order_reported(self, transcritical_set):
        params, _ = transcritical_set
        bad = Coupling(0.0, (1.0, 0.0, 0.0), (0.0,) * 3)
        with pytest.raises(FrontlabError, match="order 1"):
            chain_profile(params, bad, 1, 3)
        # first condition satisfied, second violated
        alpha = np.array([2 * SQRT2 / 3, 0.0, 0.0])
        semi = Coupling(0.0, tuple(alpha), (0.0,) * 3)
        with pytest.raises(FrontlabError, match="order 2"):
            chain_profile(params, semi, 2, 3)

    def test_boundary_consistency(self, transcritical_set):
        # the slow-field U-expression limits to K_1 for k = 1 and 0 for k >= 2
        params, coupling = transcritical_set
        eps = params.epsilon

        def u_limit(prof):
            # -(eps/2) sum_j alpha_j Psi_kj at the interface edge, where the
            # front's slow plateaus vanish and the nonlinear gradient drops out
            return -0.5 * eps * sum(a * prof.plateau(j)
                                    for j, a in enumerate(coupling.alpha, start=1))

        prof1 = chain_profile(params, coupling, 1, 3)
        assert u_limit(prof1) == pytest.approx(eps / (3 * SQRT2), abs=1e-8 * eps)
        for k in (2, 3):
            assert abs(u_limit(chain_profile(params, coupling, k, 3))) <= 1e-8 * eps

    def test_chain_bounds(self, transcritical_set):
        params, coupling = transcritical_set
        with pytest.raises(FrontlabError):
            chain_profile(params, coupling, 4, 3)
        with pytest.raises(FrontlabError):
            chain_profile(params, coupling, 2, 4)

    def test_u_component_regions(self, transcritical_set):
        params, coupling = transcritical_set
        prof = chain_profile(params, coupling, 1, 3)
        w = math.sqrt(params.epsilon)
        assert prof.u(0.5 * w) == pytest.approx(params.epsilon / (3 * SQRT2))
        # slow-field U-value: -(eps/2) sum_j (alpha_j + dF_nl) Psi_1j(y)
        y = 2.0
        acc = 0.0
        for j in range(1, 4):
            vj = prof._front.v(j, y)
            grad = coupling.alpha[j - 1] + 2 * coupling.beta[j - 1] * vj
            acc += grad * prof.v(j, y)
        assert prof.u(y) == pytest.approx(-0.5 * params.epsilon * acc, rel=1e-12)


def test_prefactor_signs():
    assert chain_prefactor(0) == 1
    assert chain_prefactor(1) == Fraction(-1, 2)
    assert chain_prefactor(2) == Fraction(3, 8)
    assert chain_prefactor(5) == Fraction(-945, 3840)
    # the binomial C(-1/2, j) is (-1)^j (2j-1)!!/(2j)!!
    for j in range(40):
        assert chain_prefactor(j) == Fraction((-1) ** j * double_factorial(2 * j - 1),
                                              double_factorial(2 * j))
