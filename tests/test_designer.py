import math
import warnings

import numpy as np
import pytest

from frontlab import (Coupling, DesignError, DistinctnessError, SystemParams,
                      design_evans_degeneracy, design_gamma_degeneracy,
                      design_simultaneous, evans_context, evans_roots,
                      evans_taylor_c0, gamma0_roots, gamma0_taylor,
                      imprint_scalar_singularity, linear_unfolding_map,
                      vandermonde_solve)
from frontlab.designer import _unfold, unfolding_polynomial_roots
from frontlab.verify import hausdorff, reference_parameter_sets

SQRT2 = math.sqrt(2.0)


class TestVandermondeSolve:
    def test_hand_examples(self):
        x = vandermonde_solve(np.array([1.0, 2.0, 3.0]), 6.0)
        assert np.allclose(x, [18.0, -18.0, 6.0])
        assert np.allclose(vandermonde_solve(np.array([2.5]), 4.0), [4.0])
        x2 = vandermonde_solve(np.array([1.0, 2.0]), 2.0)
        assert np.allclose(x2, [4.0, -2.0])
        assert x2[0] + x2[1] == pytest.approx(2.0)       # row 1
        assert x2[0] + 2 * x2[1] == pytest.approx(0.0)   # row 2

    def test_near_coincident_nodes(self):
        with pytest.raises(DistinctnessError) as exc:
            vandermonde_solve(np.array([1.0, 1.0 + 1e-12]), 1.0)
        assert exc.value.gap is not None

    def test_all_zero_nodes(self):
        with pytest.raises(DistinctnessError) as exc:
            vandermonde_solve(np.zeros(2), 1.0)
        assert exc.value.gap == 0.0


class TestDistinctness:
    """Each design checks the nodes it solves on: tau_1..tau_ell for the Evans
    conditions, and from order 2 the ratios tau_j/d_j for the existence
    conditions, before any conditioning warning."""

    P = SystemParams(epsilon=0.03, tau=(1.0, 2.0, 2.0), d=(1.0, 1.5, 1.7))

    def test_evans_design_solves_the_leading_tau_alone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = design_evans_degeneracy(self.P, 1)
        s = evans_taylor_c0(self.P, Coupling(0.0, tuple(alpha), (0.0,) * 3), 2)
        assert abs(s.coefficient(1)) <= 1e-15
        assert abs(s.coefficient(2)) > 0.1

    def test_orders_0_and_1_solve_nothing(self):
        for p in (self.P, SystemParams(epsilon=0.03, tau=(1.0, 2.0), d=(1.0, 2.0))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for m, gamma in ((0, 1.0), (1, 0.0)):
                    alpha, beta, g = design_gamma_degeneracy(p, m)
                    assert not alpha.any() and not beta.any() and g == gamma

    @pytest.mark.parametrize("tau, design", [
        ((1.0, 2.0, 2.0), lambda p: design_evans_degeneracy(p)),
        ((1.0, 2.0, 2.0), lambda p: design_gamma_degeneracy(p, 2)),
        ((1.0, 2.0, 2.0), lambda p: design_gamma_degeneracy(p, 7)),
        ((1.0, 1.0 + 1e-12, 3.0), lambda p: design_evans_degeneracy(p, 2)),
        ((1.0, 1.0 + 1e-12, 3.0), lambda p: design_gamma_degeneracy(p, 3))])
    def test_coincident_solved_tau_raise_before_any_warning(self, tau, design):
        p = SystemParams(epsilon=0.03, tau=tau, d=(1.0, 1.5, 1.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistinctnessError) as exc:
                design(p)
        assert exc.value.gap <= 1e-10

    def test_coincident_ratios_raise_from_order_2(self):
        # distinct tau, coincident tau/d: the Evans design stands, the
        # existence conditions from order 2 on cannot be solved
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 2.0))
        design_evans_degeneracy(p)
        for m in range(2, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DistinctnessError, match="tau_j/d_j") as exc:
                    design_gamma_degeneracy(p, m)
            assert exc.value.gap == 0.0


class TestDesignEvansDegeneracy:
    def test_reproduces_reference_alpha(self):
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        alpha = design_evans_degeneracy(p)
        printed = (578 * SQRT2 / 315, -289 / (90 * SQRT2), 3125 / (2142 * SQRT2))
        assert np.allclose(alpha, printed, rtol=1e-14)

    def test_single_component_closed_form(self, one_slow):
        assert design_evans_degeneracy(one_slow) == pytest.approx([2 * SQRT2 / 3])

    def test_next_coefficient_is_nonzero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            tau = np.sort(rng.uniform(0.5, 3, n))
            if n > 1 and np.min(np.diff(tau)) < 0.05:
                continue
            p = SystemParams(epsilon=0.03, tau=tuple(tau), d=tuple(rng.uniform(0.5, 3, n)))
            alpha = design_evans_degeneracy(p)
            s = evans_taylor_c0(p, Coupling(0.0, tuple(alpha), (0.0,) * n), n + 1)
            assert max(abs(s.coefficient(k)) for k in range(1, n + 1)) < 1e-11
            assert abs(s.coefficient(n + 1)) > 1e-8

    @pytest.mark.parametrize("ell", [1, 2])
    def test_partial_degeneracy(self, ell):
        # below the maximum the trailing coefficients vanish and the zero
        # root has multiplicity exactly ell+1
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        alpha = design_evans_degeneracy(p, ell)
        assert np.all(alpha[ell:] == 0.0)
        s = evans_taylor_c0(p, Coupling(0.0, tuple(alpha), (0.0,) * 3), ell + 1)
        assert max(abs(s.coefficient(k)) for k in range(1, ell + 1)) <= 1e-12
        assert abs(s.coefficient(ell + 1)) > 1e-6

    @pytest.mark.parametrize("ell", [1, 2])
    def test_partial_design_is_leading_full_design(self, ell):
        # the first ell couplings are the maximal design of the first ell
        # slow components alone
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        lead = SystemParams(epsilon=0.03, tau=p.tau[:ell], d=p.d[:ell])
        assert np.array_equal(design_evans_degeneracy(p, ell)[:ell],
                              design_evans_degeneracy(lead))

    def test_rejects_bad_requests(self, one_slow):
        with pytest.raises(DesignError):
            design_evans_degeneracy(one_slow, ell=2)
        p = SystemParams(epsilon=0.03, tau=(1.0, 1.0 + 1e-13), d=(1.0, 1.0))
        with pytest.raises(DistinctnessError):
            design_evans_degeneracy(p)


class TestDesignGammaDegeneracy:
    def test_cusp_single_component(self, one_slow):
        # existence function flat to order 3: alpha = 2 sqrt2 d/(3 tau), beta = 0,
        # with the cubic coefficient supplied by the caller's kappa
        alpha, beta, gamma = design_gamma_degeneracy(one_slow, 3)
        assert alpha == pytest.approx([2 * SQRT2 / 3])
        assert beta == pytest.approx([0.0])
        assert gamma == 0.0
        kappa = -1.0
        coup = Coupling(gamma, tuple(alpha), tuple(beta), higher=(kappa,))
        s = gamma0_taylor(one_slow, coup, 3)
        assert max(abs(s.coefficient(k)) for k in range(3)) < 1e-14
        assert abs(s.coefficient(3)) > 1e-3   # (2 kappa - alpha)/16 != 0

    def test_reproduces_reference_sets(self, transcritical_set, pitchfork_set, maximal_set):
        for (params, coupling), m in zip(
                (transcritical_set, pitchfork_set, maximal_set), (2, 3, 7)):
            alpha, beta, gamma = design_gamma_degeneracy(params, m)
            assert np.allclose(alpha, coupling.alpha, atol=1e-13)
            assert np.allclose(beta, coupling.beta, atol=1e-13)
            assert gamma == coupling.gamma

    def test_orders_verified_by_existence_module(self):
        p = SystemParams(epsilon=0.03, tau=(0.8, 1.9, 3.1), d=(1.1, 0.9, 1.4))
        for m in range(1, 8):
            alpha, beta, gamma = design_gamma_degeneracy(p, m)
            coup = Coupling(gamma, tuple(alpha), tuple(beta))
            s = gamma0_taylor(p, coup, m)
            low = max(abs(s.coefficient(k)) for k in range(m))
            assert low <= 1e-12
            assert abs(s.coefficient(m)) > 1e-8

    def test_multiplicity_via_roots(self, maximal_set):
        params, _ = maximal_set
        alpha, beta, gamma = design_gamma_degeneracy(params, 6)
        coup = Coupling(gamma, tuple(alpha), tuple(beta))
        found = gamma0_roots(params, coup, interval=(-0.4, 0.4))
        assert any(abs(r) < 1e-8 and m == 6 for r, m in found)

    def test_rejects_beyond_maximum(self, one_slow):
        with pytest.raises(DesignError):
            design_gamma_degeneracy(one_slow, 4)   # 2N+1 = 3 for N = 1


class TestDesignSimultaneous:
    def test_reproduces_reference(self):
        design = design_simultaneous((1.0, 1.5, 1.7), 1.0, epsilon=0.03)
        assert np.allclose(design.params.tau, (1.0, 2.25, 2.89), rtol=1e-15, atol=0.0)
        printed = (578 * SQRT2 / 315, -289 / (90 * SQRT2), 3125 / (2142 * SQRT2))
        assert np.allclose(design.alpha, printed, rtol=1e-13)
        assert design.singular_limit_only

    def test_single_component(self):
        design = design_simultaneous((1.3,), 0.7)
        assert design.alpha[0] == pytest.approx(2 * SQRT2 * 1.3 / (3 * 0.7))

    def test_both_degeneracies_hold(self):
        design = design_simultaneous((0.9, 1.6, 2.2), 1.4, epsilon=0.03)
        coup = design.coupling()
        n = design.params.n_slow
        sg = gamma0_taylor(design.params, coup, 2 * n + 1)
        assert max(abs(sg.coefficient(k)) for k in range(2 * n + 1)) <= 1e-12
        se = evans_taylor_c0(design.params, coup, n + 1)
        assert max(abs(se.coefficient(k)) for k in range(1, n + 1)) <= 1e-12

    def test_coincident_d_rejected(self):
        with pytest.raises(DistinctnessError):
            design_simultaneous((1.0, 1.0), 1.0)


class TestImprint:
    def test_cusp_normal_form(self, one_slow):
        coup = imprint_scalar_singularity(one_slow, [0.0, 0.0, 0.0, 1.0])
        assert coup.gamma == 0.0
        assert coup.alpha[0] == pytest.approx(2 * SQRT2 / 3)
        assert coup.beta[0] == pytest.approx(0.0, abs=1e-15)
        assert coup.higher[0] == pytest.approx(8 + SQRT2 / 3)
        s = gamma0_taylor(one_slow, coup, 3)
        assert np.allclose(s.coeffs, [0, 0, 0, 1], atol=1e-12)

    def test_butterfly_normal_form(self):
        p = SystemParams(epsilon=0.1, tau=(1.2,), d=(0.8,))
        coup = imprint_scalar_singularity(p, [0.0, 0.0, 0.0, 0.0, 0.5])
        assert coup.alpha[0] == pytest.approx(2 * SQRT2 * p.d[0] / (3 * p.tau[0]))
        assert coup.beta[0] == pytest.approx(0.0, abs=1e-14)
        assert coup.higher[0] == pytest.approx(SQRT2 * p.d[0] / (3 * p.tau[0]))
        assert coup.higher[1] != 0.0

    def test_round_trip_identity(self, one_slow):
        base = Coupling(0.2, (1.5,), (-0.4,), higher=(0.3, -0.8))
        targets = gamma0_taylor(one_slow, base, 4).coeffs
        coup = imprint_scalar_singularity(one_slow, targets)
        assert coup.gamma == pytest.approx(base.gamma, abs=1e-13)
        assert coup.alpha[0] == pytest.approx(base.alpha[0], abs=1e-13)
        assert coup.beta[0] == pytest.approx(base.beta[0], abs=1e-13)
        assert np.allclose(coup.higher, base.higher, atol=1e-12)

    def test_degenerate_diagonal_rejected(self):
        # tau/(2d) = sqrt2/3 is the non-injective case
        p = SystemParams(epsilon=0.1, tau=(2 * SQRT2 / 3,), d=(1.0,))
        with pytest.raises(DesignError):
            imprint_scalar_singularity(p, [0.0, 0.0, 1.0])

    def test_requires_single_component(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 1.0))
        with pytest.raises(DesignError):
            imprint_scalar_singularity(p, [0.0, 1.0])


def unfolding(params, delta, ell):
    """(a_1..a_ell) at the multiplicity-(ell+1) design, as the speed ODE takes them."""
    return _unfold(params, design_evans_degeneracy(params, ell), delta, ell)[0]


class TestLinearUnfoldingMap:
    def test_zero_perturbation(self):
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        abar = linear_unfolding_map(p, np.zeros(3))
        assert np.allclose(abar, 0.0, atol=1e-13)

    def test_single_component_against_bisection(self, one_slow):
        from test_evans import real_root_oracle
        for da in (1e-3, -1e-3, 1e-2):
            abar = linear_unfolding_map(one_slow, np.array([da]))
            pred = unfolding_polynomial_roots(abar)[0].real
            c = Coupling(0.0, (2 * SQRT2 / 3 + da,), (0.0,))
            oracle = real_root_oracle(one_slow, c, -0.5, 0.5)
            assert len(oracle) == 1
            assert abs(pred - oracle[0]) <= 5 * da ** 2

    def test_jacobian_rank(self):
        # the map alpha-perturbation -> abar has a nonsingular Jacobian at the
        # base point (generalized Vandermonde with factorial weights)
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        h = 1e-6
        jac = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (linear_unfolding_map(p, e) - linear_unfolding_map(p, -e)) / (2 * h)
        assert abs(np.linalg.det(jac)) > 1e-6

    def test_large_perturbation_rejected(self):
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        with pytest.raises(DesignError):
            linear_unfolding_map(p, np.array([0.2, 0.0, 0.0]))

    def test_forward_substitution_matches_lapack(self):
        # the row-by-row forward substitution gives LAPACK's triangular
        # solve bit for bit, on the reference sets and random unfoldings
        from scipy.linalg import solve_triangular

        def by_lapack(params, delta, ell):
            n = params.n_slow
            base = design_evans_degeneracy(params, ell)
            e_pert, e_base = (evans_taylor_c0(params, Coupling(0.0, tuple(alpha), (0.0,) * n),
                                              2 * ell).coeffs[1:]
                              for alpha in (base + delta, base))
            b = [[e_base[ell + r - c] if c <= r else 0.0 for c in range(ell)]
                 for r in range(ell)]
            return -solve_triangular(np.array(b), np.array(e_pert[:ell]), lower=True)

        rng = np.random.default_rng(11)
        cases = [(params, 1e-3 * np.array([1.0, -0.5, 0.25]), ell)
                 for _name, params, _coupling, _orders in reference_parameter_sets()
                 for ell in (1, 2, 3)]
        for i in range(50):
            params = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89),
                                  d=(1.0, *np.sort(rng.uniform(1.2, 2.0, 2))))
            direction = rng.standard_normal(3)
            delta = 10 ** rng.uniform(-3, -1) * direction / np.linalg.norm(direction)
            cases.append((params, delta, 1 + i % 3))
        for params, delta, ell in cases:
            assert np.array_equal(unfolding(params, delta, ell), by_lapack(params, delta, ell))
            if ell == params.n_slow:
                assert np.array_equal(linear_unfolding_map(params, delta),
                                      by_lapack(params, delta, ell))

    @pytest.mark.parametrize("ell", [1, 2])
    def test_partial_root_prediction(self, ell):
        # at a multiplicity-(ell+1) base point below the maximum, the ell
        # predicted roots and the translation root match evans_roots
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        delta = 1e-3 * np.array([1.0, -0.5, 0.25])
        base = design_evans_degeneracy(p, ell)
        pred = unfolding_polynomial_roots(unfolding(p, delta, ell))
        assert len(pred) == ell
        ctx = evans_context(p, Coupling(0.0, tuple(base + delta), (0.0,) * 3), 0.0)
        r = 3.0 * float(np.max(np.abs(pred)))
        found = [z for z, m in evans_roots(ctx, (-r, r, -r, r)).roots for _ in range(m)]
        assert hausdorff(list(pred) + [0.0], found) <= 10 * float(np.dot(delta, delta))


def test_degeneracy_spec_validation():
    p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
    design_evans_degeneracy(p, 3)
    for ell in (4, 0):
        with pytest.raises(DesignError):
            design_evans_degeneracy(p, ell)
    for m in (8, -1):
        with pytest.raises(DesignError):
            design_gamma_degeneracy(p, m)
    with pytest.raises(DesignError):
        imprint_scalar_singularity(SystemParams(epsilon=0.05, tau=(1.0, 2.0), d=(1.0, 1.0)),
                                   [0.0, 1.0])
